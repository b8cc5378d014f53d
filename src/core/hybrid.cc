#include "core/hybrid.h"

#include "core/alignment.h"
#include "core/deblank.h"

namespace rdfalign {

std::vector<NodeId> HybridRefinableSet(const CombinedGraph& cg,
                                       const Partition& base) {
  // Including the already-aligned blanks re-derives their deblank colors
  // inside the refinement, which realizes the paper's structured-color
  // semantics: a previously unaligned node whose unfolding coincides with
  // an aligned blank's derivation tree lands in that blank's class (colors
  // are built in one color space). It also makes the choice of base
  // partition irrelevant beyond its aligned/unaligned verdicts, which is
  // why starting from λ_Trivial or λ_Deblank provably yields the same
  // partition (§3.4).
  const TripleGraph& g = cg.graph();
  std::vector<NodeId> x = UnalignedNonLiterals(cg, base);
  std::vector<uint8_t> in_x(g.NumNodes(), 0);
  for (NodeId n : x) in_x[n] = 1;
  for (NodeId n = 0; n < g.NumNodes(); ++n) {
    if (g.IsBlank(n) && !in_x[n]) x.push_back(n);
  }
  return x;
}

Partition HybridPartitionFrom(const CombinedGraph& cg, const Partition& base,
                              RefinementStats* stats,
                              const RefinementOptions& options) {
  std::vector<NodeId> x = HybridRefinableSet(cg, base);
  Partition blanked = BlankColors(base, x);
  return BisimRefineFixpoint(cg.graph(), std::move(blanked), x, stats,
                             options);
}

Partition HybridPartition(const CombinedGraph& cg, RefinementStats* stats,
                          const RefinementOptions& options) {
  return HybridPartitionFrom(cg, DeblankPartition(cg, nullptr, options),
                             stats, options);
}

}  // namespace rdfalign
