#include "core/bisim.h"

namespace rdfalign {

Partition BisimPartition(const TripleGraph& g, RefinementStats* stats,
                         const RefinementOptions& options) {
  std::vector<NodeId> all(g.NumNodes());
  for (NodeId i = 0; i < g.NumNodes(); ++i) all[i] = i;
  return BisimRefineFixpoint(g, LabelPartition(g), all, stats, options);
}

bool AreBisimilar(const TripleGraph& g, NodeId n, NodeId m) {
  Partition p = BisimPartition(g);
  return p.ColorOf(n) == p.ColorOf(m);
}

}  // namespace rdfalign
