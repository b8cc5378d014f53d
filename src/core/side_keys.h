// Per-side edge keys, shared by the alignment statistics
// (core/alignment.cc) and the alignment-driven delta (core/delta.cc): the
// packed key type, the colour-triple key of an edge, and the one chunked
// kernel that lays out one key per kept edge of each side.

#ifndef RDFALIGN_CORE_SIDE_KEYS_H_
#define RDFALIGN_CORE_SIDE_KEYS_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "core/partition.h"
#include "rdf/merge.h"
#include "util/hash.h"
#include "util/thread_pool.h"

namespace rdfalign::internal {

/// 96-bit edge key packed into two 64-bit words, ordered lexicographically
/// so membership tests and multiset matching are linear merges over sorted
/// flat arrays instead of hash-set probes.
struct TripleKey {
  uint64_t hi;
  uint64_t lo;
  bool operator==(const TripleKey&) const = default;
  auto operator<=>(const TripleKey&) const = default;
};

inline TripleKey ColorKey(const Partition& p, const Triple& t) {
  return TripleKey{PackPair(p.ColorOf(t.s), p.ColorOf(t.p)),
                   static_cast<uint64_t>(p.ColorOf(t.o))};
}

/// The keep predicate of a kernel that filters nothing.
struct KeepAll {
  bool operator()(const Triple&) const { return true; }
};

/// Triples per chunk of the side-key kernel.
inline constexpr size_t kSideKeyGrain = size_t{1} << 15;

/// Sets `out` to key(t, first_index + i) for every triple t = triples[i]
/// with keep(t), in triple order. Each chunk writes its kept keys from its
/// own start; the runs then slide left in chunk order, so `out` is the
/// serial filter loop's for any thread count. With nothing filtered, the
/// fill is a positionwise write.
template <typename Key, typename KeyFn, typename KeepFn>
void FillKeptKeys(std::span<const Triple> triples, size_t first_index,
                  size_t threads, const KeyFn& key, const KeepFn& keep,
                  std::vector<Key>& out) {
  const size_t m = triples.size();
  const size_t chunks = PlanChunks(m, kSideKeyGrain);
  std::vector<size_t> kept(chunks);
  out.resize(m);
  ParallelChunks(m, threads, kSideKeyGrain,
                 [&](size_t c, size_t begin, size_t end) {
                   size_t write = begin;
                   for (size_t i = begin; i < end; ++i) {
                     if (keep(triples[i])) {
                       out[write++] = key(triples[i], first_index + i);
                     }
                   }
                   kept[c] = write - begin;
                 });
  size_t size = 0;
  for (size_t c = 0; c < chunks; ++c) {
    const size_t begin = ChunkBound(m, chunks, c);
    if (size != begin) {
      std::copy(out.begin() + begin, out.begin() + begin + kept[c],
                out.begin() + size);
    }
    size += kept[c];
  }
  out.resize(size);
}

/// FillKeptKeys over each side of a combined graph. CombinedGraph::Build
/// concatenates the two triple lists, so the source side is exactly
/// triples [0, e1) and the target side the rest; `key` receives the
/// triple's index in the combined list.
template <typename Key, typename KeyFn, typename KeepFn>
void BuildSideKeys(const CombinedGraph& cg, size_t threads, const KeyFn& key,
                   const KeepFn& keep, std::vector<Key>& source,
                   std::vector<Key>& target) {
  const std::span<const Triple> triples = cg.graph().triples();
  FillKeptKeys(triples.first(cg.e1()), 0, threads, key, keep, source);
  FillKeptKeys(triples.subspan(cg.e1()), cg.e1(), threads, key, keep,
               target);
}

}  // namespace rdfalign::internal

#endif  // RDFALIGN_CORE_SIDE_KEYS_H_
