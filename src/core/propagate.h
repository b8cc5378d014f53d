// Weighted propagation (§4.5).
//
// After enrichment, the new alignment information is pushed to the
// remaining unaligned nodes by the weighted refinement: colors evolve
// exactly as in BisimRefine, and the weight of a recolored node becomes the
// ⊕-average of its out-edge weights,
//
//   reweight_ω(n) = ⊕ { (ω(p) ⊕ ω(o)) / |out(n)| : (p,o) ∈ out(n) }.
//
// Weights on the recolored set start at 0 and only increase, so the
// iteration stabilizes; it stops when the partition is at a fixpoint and no
// weight moves by more than ε.
//
// Propagate(ξ) = BisimRefine*_{UN(ξ)}(Blank(ξ, UN(ξ))) with zeroed weights
// on UN(ξ); Propagate((λ_Trivial, 0)) ≡ (λ_Hybrid, 0) (§4.5).

#ifndef RDFALIGN_CORE_PROPAGATE_H_
#define RDFALIGN_CORE_PROPAGATE_H_

#include <vector>

#include "core/refinement.h"
#include "core/weighted_partition.h"
#include "rdf/merge.h"

namespace rdfalign {

/// Stabilization knobs for weighted refinement.
struct PropagateOptions {
  /// Weight-stabilization tolerance ε.
  double epsilon = 1e-4;
  /// Engine selection for the color fixpoint.
  RefinementOptions refinement;
};

/// One weight update pass over X; returns the largest change.
double ReweightStep(const TripleGraph& g, const std::vector<NodeId>& x,
                    std::vector<double>& weight);

/// BisimRefine*_X(ξ) for weighted partitions: color fixpoint plus weight
/// stabilization.
WeightedPartition WeightedBisimRefineFixpoint(
    const TripleGraph& g, WeightedPartition xi, const std::vector<NodeId>& x,
    const PropagateOptions& options = {}, RefinementStats* stats = nullptr);

/// Propagate(ξ): blank out the unaligned non-literal nodes (colors to ⊥b,
/// weights to 0) and run the weighted refinement on them.
WeightedPartition Propagate(const CombinedGraph& cg, WeightedPartition xi,
                            const PropagateOptions& options = {},
                            RefinementStats* stats = nullptr);

}  // namespace rdfalign

#endif  // RDFALIGN_CORE_PROPAGATE_H_
