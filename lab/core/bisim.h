// Maximal bisimulation (§2.3, Proposition 1).
//
// λ_Bisim = BisimRefine*_{N_G}(ℓ_G) captures the maximal bisimulation on G:
// two nodes get one color iff they are bisimilar. The quadratic-time
// pair-removal reference the property tests validate it against lives with
// the test oracles (tests/pipeline_oracle.h).

#ifndef RDFALIGN_CORE_BISIM_H_
#define RDFALIGN_CORE_BISIM_H_

#include "core/partition.h"
#include "core/refinement.h"
#include "rdf/graph.h"

namespace rdfalign {

/// The bisimulation partition λ_Bisim of G (Proposition 1).
Partition BisimPartition(const TripleGraph& g,
                         RefinementStats* stats = nullptr,
                         const RefinementOptions& options = {});

/// True iff n and m are bisimilar in G (same λ_Bisim color). Prefer
/// computing the partition once when testing many pairs.
bool AreBisimilar(const TripleGraph& g, NodeId n, NodeId m);

}  // namespace rdfalign

#endif  // RDFALIGN_CORE_BISIM_H_
