// Hybrid alignment (§3.4).
//
// Deblanking cannot align URI nodes whose label changed between versions
// (e.g. an ontology renames ed-uni to uoe) because the URI label re-enters
// the color at every refinement step. The hybrid method therefore resets
// the colors of all *unaligned non-literal* nodes to the neutral blank
// color and lets bisimulation refinement re-derive their identity from
// their contents:
//
//   λ_Hybrid = BisimRefine*_{UN(λ_Trivial)}(Blank(λ_Trivial, UN(λ_Trivial)))
//
// The paper writes the definition over λ_Deblank and notes in §3.4 that
// "using λTrivial instead of λDeblank above yields the same result". Under
// λ_Trivial every blank is a singleton class, hence unaligned, so X
// already holds every blank and refinement re-derives the deblank colors
// of the blanks inside the same color space. One fixpoint suffices: no
// deblank pass runs first. tests/pipeline_oracle's HybridPartitionFromBase
// is the "from any base" definition this is tested against.

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

}  // namespace rdfalign

#endif  // RDFALIGN_CORE_HYBRID_H_
