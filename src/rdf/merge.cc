#include "rdf/merge.h"

#include "util/thread_pool.h"

namespace rdfalign {

namespace {

// Elements per chunk of the shifted copies.
constexpr size_t kMergeGrain = 1 << 15;

// `a` followed by `b` shifted: each chunk is a positionwise transform of
// a disjoint output range, so the bytes are identical for any thread
// count.
template <typename T, typename ShiftFn>
std::vector<T> ConcatShift(std::span<const T> a, std::span<const T> b,
                           const ShiftFn& shift, size_t threads) {
  std::vector<T> out(a.size() + b.size());
  ParallelChunks(a.size(), threads, kMergeGrain,
                 [&](size_t, size_t begin, size_t end) {
                   std::copy(a.begin() + begin, a.begin() + end,
                             out.begin() + begin);
                 });
  ParallelChunks(b.size(), threads, kMergeGrain,
                 [&](size_t, size_t begin, size_t end) {
                   for (size_t i = begin; i < end; ++i) {
                     out[a.size() + i] = shift(b[i]);
                   }
                 });
  return out;
}

/// Concatenates two CSR offset arrays: g2's offsets continue after g1's
/// last entry. Both inputs end/begin with the shared boundary value.
std::vector<uint64_t> ConcatOffsets(std::span<const uint64_t> a,
                                    std::span<const uint64_t> b) {
  std::vector<uint64_t> out;
  out.reserve(a.size() + b.size() - 1);
  out.insert(out.end(), a.begin(), a.end());
  const uint64_t base = a.empty() ? 0 : a.back();
  for (size_t i = 1; i < b.size(); ++i) {
    out.push_back(base + b[i]);
  }
  return out;
}

}  // namespace

Result<CombinedGraph> CombinedGraph::Build(const TripleGraph& g1,
                                           const TripleGraph& g2,
                                           size_t threads) {
  if (g1.dict_ptr().get() != g2.dict_ptr().get()) {
    return Status::InvalidArgument(
        "CombinedGraph::Build requires both graphs to share one Dictionary");
  }
  const NodeId n1 = static_cast<NodeId>(g1.NumNodes());
  const NodeId n2 = static_cast<NodeId>(g2.NumNodes());

  std::vector<NodeLabel> labels;
  labels.reserve(n1 + n2);
  labels.insert(labels.end(), g1.labels().begin(), g1.labels().end());
  labels.insert(labels.end(), g2.labels().begin(), g2.labels().end());

  // Both triple lists are sorted by (s, p, o) and deduplicated, and every
  // shifted target subject (>= n1) sorts after every source subject (< n1),
  // so the union's sorted triple list is the concatenation. The same holds
  // per node for both CSR indexes: source slices reference only source
  // nodes, shifted target slices only target nodes, and in-slice order is
  // preserved by adding the constant offset.
  std::vector<Triple> triples = ConcatShift<Triple>(
      g1.triples(), g2.triples(),
      [n1](const Triple& t) { return Triple{t.s + n1, t.p + n1, t.o + n1}; },
      threads);
  std::vector<PredicateObject> out_pairs = ConcatShift<PredicateObject>(
      g1.OutPairs(), g2.OutPairs(),
      [n1](const PredicateObject& po) {
        return PredicateObject{po.p + n1, po.o + n1};
      },
      threads);
  std::vector<NodeId> in_subjects = ConcatShift<NodeId>(
      g1.InSubjects(), g2.InSubjects(),
      [n1](NodeId s) { return static_cast<NodeId>(s + n1); }, threads);

  CombinedGraph out;
  out.graph_ = TripleGraph::FromIndexedParts(
      g1.dict_ptr(), std::move(labels), SharedArray<Triple>(std::move(triples)),
      SharedArray<uint64_t>(ConcatOffsets(g1.OutOffsets(), g2.OutOffsets())),
      SharedArray<PredicateObject>(std::move(out_pairs)),
      SharedArray<uint64_t>(ConcatOffsets(g1.InOffsets(), g2.InOffsets())),
      SharedArray<NodeId>(std::move(in_subjects)));
  out.n1_ = n1;
  out.n2_ = n2;
  out.e1_ = g1.NumEdges();
  out.e2_ = g2.NumEdges();
  return out;
}

}  // namespace rdfalign
