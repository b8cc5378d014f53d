#include "core/propagate.h"

#include <algorithm>
#include <cmath>

#include "core/alignment.h"

namespace rdfalign {

double ReweightStep(const TripleGraph& g, const std::vector<NodeId>& x,
                    std::vector<double>& weight) {
  double max_delta = 0.0;
  std::vector<double> updated;
  updated.reserve(x.size());
  // Jacobi-style update: all new weights are computed from the previous
  // vector, then installed, so the result is independent of the order of x.
  for (NodeId n : x) {
    auto out = g.Out(n);
    if (out.empty()) {
      updated.push_back(weight[n]);  // reweight is undefined; keep ω(n)
      continue;
    }
    const double inv_deg = 1.0 / static_cast<double>(out.size());
    double acc = 0.0;
    for (const PredicateObject& po : out) {
      acc += OPlus(weight[po.p], weight[po.o]) * inv_deg;
      if (acc >= 1.0) {
        acc = 1.0;
        break;
      }
    }
    updated.push_back(acc);
  }
  for (size_t i = 0; i < x.size(); ++i) {
    max_delta = std::max(max_delta, std::abs(updated[i] - weight[x[i]]));
    weight[x[i]] = updated[i];
  }
  return max_delta;
}

WeightedPartition WeightedBisimRefineFixpoint(const TripleGraph& g,
                                              WeightedPartition xi,
                                              const std::vector<NodeId>& x,
                                              const PropagateOptions& options,
                                              RefinementStats* stats) {
  // Colors do not depend on weights, so the color fixpoint can be computed
  // first; the weight iteration then runs to its own (least) fixpoint.
  xi.partition = BisimRefineFixpoint(g, std::move(xi.partition), x, stats,
                                     options.refinement);
  // A safety cap on weight iterations after the partition stabilizes.
  constexpr size_t kMaxWeightIterations = 1000;
  for (size_t iter = 0; iter < kMaxWeightIterations; ++iter) {
    double delta = ReweightStep(g, x, xi.weight);
    if (delta < options.epsilon) break;
  }
  return xi;
}

WeightedPartition Propagate(const CombinedGraph& cg, WeightedPartition xi,
                            const PropagateOptions& options,
                            RefinementStats* stats) {
  std::vector<NodeId> un = UnalignedNonLiterals(cg, xi.partition);
  xi.partition = BlankColors(xi.partition, un);
  for (NodeId n : un) xi.weight[n] = 0.0;
  return WeightedBisimRefineFixpoint(cg.graph(), std::move(xi), un, options,
                                     stats);
}

}  // namespace rdfalign
