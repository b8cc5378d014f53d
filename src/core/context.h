// Predicate-aware (contextual) refinement — the fix the paper sketches for
// its one observed error class (§5.1):
//
//   "our methods make errors by incorrectly aligning URIs that are used as
//    predicates only ... A better solution would identify URIs that are
//    predominantly used as predicates and use a different refinement
//    process, for instance, one that incorporates the colors of the subject
//    and the object in any triple that uses the given predicate."
//
// Plain hybrid refinement sees a predicate-only URI as a sink (empty
// out-neighborhood), so all unaligned predicate-only URIs collapse into one
// class. The contextual variant gives such nodes a *mediation signature*:
// the set of (λ(s), λ(o)) pairs over the triples they mediate. Predicates
// that connect the same kinds of things align; unrelated ones split.

#ifndef RDFALIGN_CORE_CONTEXT_H_
#define RDFALIGN_CORE_CONTEXT_H_

#include <vector>

#include "core/partition.h"
#include "core/refinement.h"
#include "rdf/graph.h"
#include "rdf/merge.h"

namespace rdfalign {

/// URIs that occur in predicate position and never as subject or object.
std::vector<NodeId> PredicateOnlyUris(const TripleGraph& g);

/// An index from predicate node to the (subject, object) pairs of the
/// triples it mediates (CSR layout, pairs sorted), plus the reverse
/// direction: from a node to the distinct predicates mediating it. The
/// reverse index is the dirtiness relation of the contextual worklist
/// engine — when a node's color changes, exactly the predicates in
/// MediatingPredicates() can observe the change through their mediation
/// signatures.
class MediationIndex {
 public:
  explicit MediationIndex(const TripleGraph& g);

  std::span<const PredicateObject> Mediated(NodeId p) const {
    return {pairs_.data() + offsets_[p], offsets_[p + 1] - offsets_[p]};
  }

  /// Distinct predicates p with a triple (n, p, o) or (s, p, n), ascending.
  std::span<const NodeId> MediatingPredicates(NodeId n) const {
    return {rev_predicates_.data() + rev_offsets_[n],
            rev_offsets_[n + 1] - rev_offsets_[n]};
  }

 private:
  std::vector<uint64_t> offsets_;
  // Reuses PredicateObject as a plain (subject, object) pair.
  std::vector<PredicateObject> pairs_;
  // Reverse CSR: distinct predicates per subject-or-object node.
  std::vector<uint64_t> rev_offsets_;
  std::vector<NodeId> rev_predicates_;
};

/// One contextual refinement step: nodes in X are recolored by the usual
/// out-neighborhood signature, and nodes in X that are predicate-only URIs
/// additionally carry their mediation signature.
/// The reference the contextual fixpoint engine is tested against; no
/// production path calls it.
Partition ContextualRefineStep(const TripleGraph& g, const Partition& p,
                               const std::vector<NodeId>& x,
                               const MediationIndex& mediation,
                               const std::vector<uint8_t>& predicate_only);

/// Fixpoint of the contextual step on the worklist engine: only dirty nodes
/// are re-signed, with dirtiness following both the out-neighborhood
/// (TripleGraph::In) and the mediation index. RefinementOptions::threads
/// signs wide rounds in parallel, bit-identically for every thread count.
Partition ContextualRefineFixpoint(const TripleGraph& g, Partition initial,
                                   const std::vector<NodeId>& x,
                                   const MediationIndex& mediation,
                                   const std::vector<uint8_t>& predicate_only,
                                   RefinementStats* stats = nullptr,
                                   const RefinementOptions& options = {});

/// The prepared inputs of the predicate-aware hybrid alignment: the
/// blanked base partition, the refinable set UN(λ_Trivial) (which holds
/// every blank), the predicate-only flags, and the mediation index.
struct ContextualHybridInputs {
  Partition blanked;
  std::vector<NodeId> x;
  std::vector<uint8_t> predicate_only;
  MediationIndex mediation;
};

/// Builds the inputs PredicateAwareHybridPartition refines over. Exposed so
/// the refinement bench and the equivalence tests run the contextual
/// fixpoint on exactly the production shape.
ContextualHybridInputs BuildContextualHybridInputs(const CombinedGraph& cg);

/// The hybrid alignment with predicate-aware refinement: identical to
/// HybridPartition except that unaligned predicate-only URIs are identified
/// by what they *connect* instead of collapsing into one sink class.
Partition PredicateAwareHybridPartition(const CombinedGraph& cg,
                                        RefinementStats* stats = nullptr,
                                        const RefinementOptions& options = {});

}  // namespace rdfalign

#endif  // RDFALIGN_CORE_CONTEXT_H_
