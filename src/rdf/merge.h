// Disjoint union G = G1 ⊎ G2 of the source and target versions (§2.1/§3).
//
// All alignment methods operate on one combined triple graph in which node
// ids [0, n1) come from the source and [n1, n1+n2) from the target. The
// combined graph intentionally violates label uniqueness (the same URI may
// label one node per side) — that is the whole point of the identifier-based
// data model.

#ifndef RDFALIGN_RDF_MERGE_H_
#define RDFALIGN_RDF_MERGE_H_

#include <vector>

#include "rdf/graph.h"
#include "util/result.h"

namespace rdfalign {

/// The disjoint union of two versions, with provenance helpers.
class CombinedGraph {
 public:
  /// Builds G1 ⊎ G2. The two graphs must share a Dictionary object (build
  /// them from one GraphBuilder dictionary, or parse with a shared
  /// dictionary); otherwise the label spaces are not comparable and an
  /// InvalidArgument status is returned.
  ///
  /// Because both inputs are already sorted and CSR-indexed and the shifted
  /// target ids all exceed the source ids, the union's triple list and both
  /// CSR indexes are plain concatenations (with the id offset applied) —
  /// no re-sort, re-dedup, or re-index. Bit-identical to re-indexing from
  /// scratch through TripleGraph::FromParts.
  /// The shifted copies are chunked positionwise transforms; `threads` > 1
  /// runs them on the shared pool — same bytes for any thread count.
  static Result<CombinedGraph> Build(const TripleGraph& g1,
                                     const TripleGraph& g2,
                                     size_t threads = 1);

  const TripleGraph& graph() const { return graph_; }

  /// Number of source-graph nodes; ids below this are source nodes.
  NodeId n1() const { return n1_; }
  /// Number of target-graph nodes.
  NodeId n2() const { return n2_; }

  bool InSource(NodeId n) const { return n < n1_; }
  bool InTarget(NodeId n) const { return n >= n1_; }

  /// Maps a source-graph node id into the combined graph (identity).
  NodeId FromSource(NodeId n) const { return n; }
  /// Maps a target-graph node id into the combined graph (offset by n1).
  NodeId FromTarget(NodeId n) const { return n + n1_; }

  /// Maps a combined id back to its original graph-local id.
  NodeId ToLocal(NodeId n) const { return InSource(n) ? n : n - n1_; }

  /// Number of edges contributed by each side.
  size_t e1() const { return e1_; }
  size_t e2() const { return e2_; }

 private:
  TripleGraph graph_;
  NodeId n1_ = 0;
  NodeId n2_ = 0;
  size_t e1_ = 0;
  size_t e2_ = 0;
};

}  // namespace rdfalign

#endif  // RDFALIGN_RDF_MERGE_H_
