#include "rdf/statistics.h"

#include <algorithm>
#include <atomic>
#include <vector>

#include "util/thread_pool.h"

namespace rdfalign {
namespace {

// Elements (triples or nodes) per chunk.
constexpr size_t kStatsGrain = 1 << 15;

}  // namespace

GraphStatistics ComputeStatistics(const TripleGraph& g, size_t threads) {
  const size_t n = g.NumNodes();
  std::vector<uint8_t> as_subject_or_object(n, 0);
  std::vector<uint8_t> as_predicate(n, 0);
  // Flag stores are order-insensitive (every writer stores 1); relaxed
  // atomics keep concurrent same-cell writes defined without changing the
  // outcome. The loop works on chunk-local pointers: a byte store may alias
  // anything, so the captured vectors would be reloaded after every store.
  const std::span<const Triple> triples = g.triples();
  ParallelChunks(triples.size(), threads, kStatsGrain,
                 [&](size_t, size_t begin, size_t end) {
                   uint8_t* const so = as_subject_or_object.data();
                   uint8_t* const pred = as_predicate.data();
                   for (const Triple& t : triples.subspan(begin, end - begin)) {
                     std::atomic_ref<uint8_t>(so[t.s])
                         .store(1, std::memory_order_relaxed);
                     std::atomic_ref<uint8_t>(so[t.o])
                         .store(1, std::memory_order_relaxed);
                     std::atomic_ref<uint8_t>(pred[t.p])
                         .store(1, std::memory_order_relaxed);
                   }
                 });

  // Per-chunk node counters folded in chunk order. All are integer sums
  // and maxes, so the fold is exact for any chunking.
  GraphStatistics init;
  init.nodes = n;
  init.edges = g.NumEdges();
  GraphStatistics s = ChunkedReduce<GraphStatistics>(
      n, threads, kStatsGrain, init,
      [&](size_t, size_t begin, size_t end) {
        GraphStatistics p;
        for (size_t i = begin; i < end; ++i) {
          switch (g.KindOf(static_cast<NodeId>(i))) {
            case TermKind::kUri:
              ++p.uris;
              if (as_predicate[i] && !as_subject_or_object[i]) {
                ++p.predicate_only_uris;
              }
              break;
            case TermKind::kLiteral:
              ++p.literals;
              break;
            case TermKind::kBlank:
              ++p.blanks;
              break;
          }
          const size_t deg = g.OutDegree(static_cast<NodeId>(i));
          if (deg == 0) ++p.sinks;
          if (deg > p.max_out_degree) p.max_out_degree = deg;
        }
        return p;
      },
      [](GraphStatistics& acc, GraphStatistics&& p) {
        acc.uris += p.uris;
        acc.literals += p.literals;
        acc.blanks += p.blanks;
        acc.predicate_only_uris += p.predicate_only_uris;
        acc.sinks += p.sinks;
        acc.max_out_degree = std::max(acc.max_out_degree, p.max_out_degree);
      });
  s.avg_out_degree = n == 0 ? 0.0 : static_cast<double>(s.edges) / n;
  return s;
}

}  // namespace rdfalign
