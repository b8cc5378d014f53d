#include "rdf/merge.h"

#include "util/thread_pool.h"

namespace rdfalign {

namespace {

constexpr size_t kMergeParallelMin = 1 << 15;
constexpr size_t kMergeGrain = 1 << 15;

// Writes `a` followed by `b` shifted into out (already sized): each chunk
// is a positionwise transform of disjoint output ranges, so the bytes are
// identical for any thread count.
template <typename T, typename ShiftFn>
void ParallelConcatShift(std::span<const T> a, std::span<const T> b,
                         const ShiftFn& shift, size_t threads,
                         std::vector<T>& out) {
  out.resize(a.size() + b.size());
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
  threads = EffectiveLanes(threads);
  if (g1.NumEdges() + g2.NumEdges() < kMergeParallelMin) threads = 1;

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
  std::vector<Triple> triples;
  if (threads > 1) {
    ParallelConcatShift<Triple>(
        g1.triples(), g2.triples(),
        [n1](const Triple& t) {
          return Triple{t.s + n1, t.p + n1, t.o + n1};
        },
        threads, triples);
  } else {
    triples.reserve(g1.NumEdges() + g2.NumEdges());
    triples.insert(triples.end(), g1.triples().begin(), g1.triples().end());
    for (const Triple& t : g2.triples()) {
      triples.push_back(Triple{t.s + n1, t.p + n1, t.o + n1});
    }
  }

  std::vector<PredicateObject> out_pairs;
  if (threads > 1) {
    ParallelConcatShift<PredicateObject>(
        g1.OutPairs(), g2.OutPairs(),
        [n1](const PredicateObject& po) {
          return PredicateObject{po.p + n1, po.o + n1};
        },
        threads, out_pairs);
  } else {
    out_pairs.reserve(g1.OutPairs().size() + g2.OutPairs().size());
    out_pairs.insert(out_pairs.end(), g1.OutPairs().begin(),
                     g1.OutPairs().end());
    for (const PredicateObject& po : g2.OutPairs()) {
      out_pairs.push_back(PredicateObject{po.p + n1, po.o + n1});
    }
  }

  std::vector<NodeId> in_subjects;
  if (threads > 1) {
    ParallelConcatShift<NodeId>(
        g1.InSubjects(), g2.InSubjects(),
        [n1](NodeId s) { return static_cast<NodeId>(s + n1); }, threads,
        in_subjects);
  } else {
    in_subjects.reserve(g1.InSubjects().size() + g2.InSubjects().size());
    in_subjects.insert(in_subjects.end(), g1.InSubjects().begin(),
                       g1.InSubjects().end());
    for (const NodeId s : g2.InSubjects()) {
      in_subjects.push_back(s + n1);
    }
  }

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
