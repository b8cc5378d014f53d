#include "core/worklist_engine.h"

namespace rdfalign {
namespace internal {

Partition RunWorklistFixpoint(const TripleGraph& g, const Partition& initial,
                              const std::vector<NodeId>& x,
                              const WorklistConfig& config,
                              RefinementStats* stats) {
  WorklistConfig resolved = config;
  resolved.threads = ResolveThreads(config.threads);
  RefinementStats local;
  local.initial_classes = initial.NumColors();
  WorklistEngine<TripleGraph> engine(g, initial, x, resolved);
  Partition result = engine.Run(&local);
  assert(Partition::IsFinerOrEqual(result, initial));
  local.final_classes = result.NumColors();
  if (stats != nullptr) *stats = std::move(local);
  return result;
}

}  // namespace internal
}  // namespace rdfalign
