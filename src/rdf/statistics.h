// Per-graph statistics reported by the dataset figures (Figs. 9, 12, 16).

#ifndef RDFALIGN_RDF_STATISTICS_H_
#define RDFALIGN_RDF_STATISTICS_H_

#include <cstddef>

#include "rdf/graph.h"

namespace rdfalign {

/// Node/edge counts by kind plus structural measures.
struct GraphStatistics {
  size_t nodes = 0;
  size_t edges = 0;
  size_t uris = 0;
  size_t literals = 0;
  size_t blanks = 0;
  /// URIs that occur only in predicate position (the error-prone nodes
  /// discussed at the end of §5.1).
  size_t predicate_only_uris = 0;
  /// Nodes with no outgoing edges (sinks: literals and leaf URIs).
  size_t sinks = 0;
  size_t max_out_degree = 0;
  double avg_out_degree = 0.0;
};

/// Computes statistics in one pass over the triples and one over the
/// nodes, both chunked, with per-chunk counters merged in chunk order.
/// `threads` > 1 runs the chunks on the shared pool; every counter is
/// bit-identical for any thread count.
GraphStatistics ComputeStatistics(const TripleGraph& g, size_t threads = 1);

}  // namespace rdfalign

#endif  // RDFALIGN_RDF_STATISTICS_H_
