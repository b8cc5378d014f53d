#include "core/hybrid.h"

#include "core/alignment.h"

namespace rdfalign {

Partition HybridPartition(const CombinedGraph& cg, RefinementStats* stats,
                          const RefinementOptions& options) {
  const TripleGraph& g = cg.graph();
  Partition base = TrivialPartition(g);
  std::vector<NodeId> x = UnalignedNonLiterals(cg, base);
  return BisimRefineFixpoint(g, BlankColors(base, x), x, stats, options);
}

}  // namespace rdfalign
