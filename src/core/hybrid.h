// Hybrid alignment (§3.4).
//
// Deblanking cannot align URI nodes whose label changed between versions
// (e.g. an ontology renames ed-uni to uoe) because the URI label re-enters
// the color at every refinement step. The hybrid method therefore resets
// the colors of all *unaligned non-literal* nodes to the neutral blank
// color and lets bisimulation refinement re-derive their identity from
// their contents:
//
//   λ_Hybrid = BisimRefine*_{UN(λ_Deblank)}(Blank(λ_Deblank, UN(λ_Deblank)))
//
// Starting from λ_Trivial instead of λ_Deblank yields the same partition
// (noted in §3.4 and verified by a property test).

#ifndef RDFALIGN_CORE_HYBRID_H_
#define RDFALIGN_CORE_HYBRID_H_

#include "core/partition.h"
#include "core/refinement.h"
#include "rdf/merge.h"

namespace rdfalign {

/// Computes λ_Hybrid over the combined graph.
Partition HybridPartition(const CombinedGraph& cg,
                          RefinementStats* stats = nullptr,
                          const RefinementOptions& options = {});

/// The hybrid refinable set X: UN(base) (ascending), then every blank node
/// not already in it (ascending). Shared with the predicate-aware hybrid
/// (core/context.h), which refines the same X.
std::vector<NodeId> HybridRefinableSet(const CombinedGraph& cg,
                                       const Partition& base);

/// Computes λ_Hybrid starting from an arbitrary base partition (used by the
/// equivalence property test and by callers that already computed Deblank).
Partition HybridPartitionFrom(const CombinedGraph& cg, const Partition& base,
                              RefinementStats* stats = nullptr,
                              const RefinementOptions& options = {});

}  // namespace rdfalign

#endif  // RDFALIGN_CORE_HYBRID_H_
