#include "core/alignment.h"

#include <algorithm>
#include <atomic>

#include "core/side_keys.h"
#include "util/hash.h"
#include "util/thread_pool.h"

namespace rdfalign {

namespace {

using internal::TripleKey;

// Nodes or classes per chunk.
constexpr size_t kAlignGrain = 1 << 15;

/// Counts the elements of sorted multiset `b` whose key occurs in sorted
/// multiset `a` — one linear merge, no per-element searches.
size_t CountMembersIn(const std::vector<TripleKey>& b,
                      const std::vector<TripleKey>& a) {
  size_t count = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      const TripleKey key = b[j];
      while (j < b.size() && b[j] == key) {
        ++count;
        ++j;
      }
      while (i < a.size() && a[i] == key) ++i;
    }
  }
  return count;
}

}  // namespace

std::vector<ClassSides> ComputeClassSides(const CombinedGraph& cg,
                                          const Partition& p, size_t threads) {
  // One flag byte per class and side. Every writer stores 1, so relaxed
  // stores give the same flags for any interleaving, with no
  // read-modify-write. The loops work on chunk-local pointers: a byte
  // store may alias anything, so the captured vectors would be reloaded
  // after every store.
  const size_t k = p.NumColors();
  std::vector<uint8_t> in_source(k, 0);
  std::vector<uint8_t> in_target(k, 0);
  ParallelChunks(p.NumNodes(), threads, kAlignGrain,
                 [&](size_t, size_t begin, size_t end) {
                   const ColorId* const color = p.colors().data();
                   uint8_t* const source = in_source.data();
                   uint8_t* const target = in_target.data();
                   const size_t n1 = cg.n1();
                   for (size_t n = begin; n < end; ++n) {
                     std::atomic_ref<uint8_t>(
                         (n < n1 ? source : target)[color[n]])
                         .store(1, std::memory_order_relaxed);
                   }
                 });
  std::vector<ClassSides> out(k);
  ParallelChunks(k, threads, kAlignGrain,
                 [&](size_t, size_t begin, size_t end) {
                   const uint8_t* const source = in_source.data();
                   const uint8_t* const target = in_target.data();
                   ClassSides* const sides = out.data();
                   for (size_t c = begin; c < end; ++c) {
                     sides[c] =
                         static_cast<ClassSides>(source[c] | (target[c] << 1));
                   }
                 });
  return out;
}

std::vector<NodeId> UnalignedNodes(const CombinedGraph& cg,
                                   const Partition& p) {
  std::vector<ClassSides> sides = ComputeClassSides(cg, p);
  std::vector<NodeId> out;
  for (NodeId n = 0; n < p.NumNodes(); ++n) {
    if (sides[p.ColorOf(n)] != ClassSides::kBoth) out.push_back(n);
  }
  return out;
}

std::vector<NodeId> UnalignedNonLiterals(const CombinedGraph& cg,
                                         const Partition& p) {
  std::vector<ClassSides> sides = ComputeClassSides(cg, p);
  const TripleGraph& g = cg.graph();
  std::vector<NodeId> out;
  for (NodeId n = 0; n < p.NumNodes(); ++n) {
    if (sides[p.ColorOf(n)] != ClassSides::kBoth && !g.IsLiteral(n)) {
      out.push_back(n);
    }
  }
  return out;
}

EdgeAlignmentStats ComputeEdgeAlignment(const CombinedGraph& cg,
                                        const Partition& p, size_t threads) {
  const TripleGraph& g = cg.graph();

  std::vector<TripleKey> set_a;
  std::vector<TripleKey> set_b;

  // Pass 1: count label-identical non-blank edges present on both sides —
  // these are "edges using precisely the same identifiers" and are counted
  // once. Blank nodes are never persistent identifiers, so edges touching a
  // blank never merge.
  // Lexical ids are shared across kinds (a URI and a literal can intern the
  // same string), so the object's kind is packed into the key; subjects are
  // never literals and predicates are always URIs.
  internal::BuildSideKeys(
      cg, threads,
      [&](const Triple& t, size_t) {
        return TripleKey{PackPair(g.LexicalId(t.s), g.LexicalId(t.p)),
                         static_cast<uint64_t>(g.LexicalId(t.o)) |
                             (static_cast<uint64_t>(g.KindOf(t.o)) << 32)};
      },
      [&](const Triple& t) {
        return !g.IsBlank(t.s) && !g.IsBlank(t.p) && !g.IsBlank(t.o);
      },
      set_a, set_b);
  ParallelSort(set_a, threads);
  ParallelSort(set_b, threads);
  const size_t merged = CountMembersIn(set_b, set_a);

  // Pass 2: an edge is aligned when the opposite side has an edge whose
  // color triple matches — sort each side's key multiset, then count cross
  // memberships with two linear merges.
  internal::BuildSideKeys(
      cg, threads,
      [&](const Triple& t, size_t) { return internal::ColorKey(p, t); },
      internal::KeepAll{}, set_a, set_b);
  ParallelSort(set_a, threads);
  ParallelSort(set_b, threads);
  size_t aligned = CountMembersIn(set_a, set_b) + CountMembersIn(set_b, set_a);
  // Merged edges are aligned on both sides by construction; count them once.
  aligned -= merged;

  EdgeAlignmentStats stats;
  stats.total_edges = cg.e1() + cg.e2() - merged;
  stats.aligned_edges = aligned;
  return stats;
}

NodeAlignmentStats ComputeNodeAlignment(const CombinedGraph& cg,
                                        const Partition& p, size_t threads) {
  const std::vector<ClassSides> sides = ComputeClassSides(cg, p, threads);
  // Integer sums merged in chunk order — exact for any chunking.
  NodeAlignmentStats stats = ChunkedReduce<NodeAlignmentStats>(
      p.NumNodes(), threads, kAlignGrain, NodeAlignmentStats{},
      [&](size_t, size_t begin, size_t end) {
        NodeAlignmentStats part;
        for (size_t i = begin; i < end; ++i) {
          const NodeId n = static_cast<NodeId>(i);
          const bool aligned = sides[p.ColorOf(n)] == ClassSides::kBoth;
          if (cg.InSource(n)) {
            aligned ? ++part.aligned_source_nodes
                    : ++part.unaligned_source_nodes;
          } else {
            aligned ? ++part.aligned_target_nodes
                    : ++part.unaligned_target_nodes;
          }
        }
        return part;
      },
      [](NodeAlignmentStats& acc, NodeAlignmentStats&& part) {
        acc.aligned_source_nodes += part.aligned_source_nodes;
        acc.aligned_target_nodes += part.aligned_target_nodes;
        acc.unaligned_source_nodes += part.unaligned_source_nodes;
        acc.unaligned_target_nodes += part.unaligned_target_nodes;
      });
  stats.aligned_classes = static_cast<size_t>(
      std::count(sides.begin(), sides.end(), ClassSides::kBoth));
  return stats;
}

std::vector<std::pair<NodeId, NodeId>> EnumerateAlignedPairs(
    const CombinedGraph& cg, const Partition& p, size_t limit) {
  // Group nodes per class and side with two counting-sort CSRs over the
  // dense colors. Classes are emitted in ascending color order, so the
  // output is deterministic (the hash-map version followed bucket order).
  const size_t num_colors = p.NumColors();
  std::vector<uint64_t> src_off(num_colors + 1, 0);
  std::vector<uint64_t> tgt_off(num_colors + 1, 0);
  for (NodeId n = 0; n < p.NumNodes(); ++n) {
    ++(cg.InSource(n) ? src_off : tgt_off)[p.ColorOf(n) + 1];
  }
  for (size_t c = 0; c < num_colors; ++c) {
    src_off[c + 1] += src_off[c];
    tgt_off[c + 1] += tgt_off[c];
  }
  std::vector<NodeId> src_members(src_off[num_colors]);
  std::vector<NodeId> tgt_members(tgt_off[num_colors]);
  {
    std::vector<uint64_t> src_cur(src_off.begin(), src_off.end() - 1);
    std::vector<uint64_t> tgt_cur(tgt_off.begin(), tgt_off.end() - 1);
    for (NodeId n = 0; n < p.NumNodes(); ++n) {
      const ColorId c = p.ColorOf(n);
      if (cg.InSource(n)) {
        src_members[src_cur[c]++] = n;
      } else {
        tgt_members[tgt_cur[c]++] = n;
      }
    }
  }
  std::vector<std::pair<NodeId, NodeId>> out;
  for (size_t c = 0; c < num_colors; ++c) {
    for (uint64_t i = src_off[c]; i < src_off[c + 1]; ++i) {
      for (uint64_t j = tgt_off[c]; j < tgt_off[c + 1]; ++j) {
        if (out.size() >= limit) return out;
        out.emplace_back(src_members[i], tgt_members[j]);
      }
    }
  }
  return out;
}

bool HasCrossoverProperty(
    const std::vector<std::pair<NodeId, NodeId>>& pairs) {
  // Sorted packed-u64 views replace the std::set + two std::multimaps: the
  // forward array doubles as the membership set and the by-source index,
  // and the reversed array is the by-target index.
  std::vector<uint64_t> fwd;
  std::vector<uint64_t> rev;
  fwd.reserve(pairs.size());
  rev.reserve(pairs.size());
  for (const auto& [n, m] : pairs) {
    fwd.push_back(PackPair(n, m));
    rev.push_back(PackPair(m, n));
  }
  std::sort(fwd.begin(), fwd.end());
  std::sort(rev.begin(), rev.end());
  auto range_of = [](const std::vector<uint64_t>& sorted, NodeId hi) {
    return std::pair{
        std::lower_bound(sorted.begin(), sorted.end(), PackPair(hi, 0)),
        std::upper_bound(sorted.begin(), sorted.end(),
                         PackPair(hi, kInvalidNode))};
  };
  for (const auto& [n, m] : pairs) {
    auto [ms_begin, ms_end] = range_of(fwd, n);   // all m' with (n, m')
    auto [ns_begin, ns_end] = range_of(rev, m);   // all n' with (n', m)
    for (auto it1 = ns_begin; it1 != ns_end; ++it1) {
      const NodeId n_prime = UnpackLo(*it1);
      for (auto it2 = ms_begin; it2 != ms_end; ++it2) {
        const NodeId m_prime = UnpackLo(*it2);
        if (!std::binary_search(fwd.begin(), fwd.end(),
                                PackPair(n_prime, m_prime))) {
          return false;
        }
      }
    }
  }
  return true;
}

}  // namespace rdfalign
