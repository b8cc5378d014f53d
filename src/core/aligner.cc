#include "core/aligner.h"

#include <algorithm>

#include "core/context.h"
#include "core/deblank.h"
#include "core/hybrid.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace rdfalign {

std::string_view AlignMethodToString(AlignMethod method) {
  switch (method) {
    case AlignMethod::kTrivial:
      return "trivial";
    case AlignMethod::kDeblank:
      return "deblank";
    case AlignMethod::kHybrid:
      return "hybrid";
    case AlignMethod::kHybridContextual:
      return "hybrid-contextual";
    case AlignMethod::kOverlap:
      return "overlap";
  }
  return "unknown";
}

Result<AlignmentOutcome> Aligner::Align(const TripleGraph& g1,
                                        const TripleGraph& g2) const {
  WallTimer merge_timer;
  RDFALIGN_ASSIGN_OR_RETURN(
      CombinedGraph cg,
      CombinedGraph::Build(g1, g2, ResolveThreads(options_.refinement.threads)));
  const double merge_ms = merge_timer.ElapsedMillis();
  Result<AlignmentOutcome> outcome = AlignCombined(cg);
  if (outcome.ok()) outcome->phases.merge_ms = merge_ms;
  return outcome;
}

AlignmentOutcome Aligner::AlignCombined(const CombinedGraph& cg) const {
  AlignmentOutcome outcome;
  WallTimer timer;
  switch (options_.method) {
    case AlignMethod::kTrivial:
      outcome.partition = TrivialPartition(cg.graph());
      break;
    case AlignMethod::kDeblank:
      outcome.partition =
          DeblankPartition(cg, &outcome.refinement, options_.refinement);
      break;
    case AlignMethod::kHybrid:
      outcome.partition =
          HybridPartition(cg, &outcome.refinement, options_.refinement);
      break;
    case AlignMethod::kHybridContextual:
      outcome.partition = PredicateAwareHybridPartition(
          cg, &outcome.refinement, options_.refinement);
      break;
    case AlignMethod::kOverlap: {
      // `refinement` is the one thread setting: it drives both the
      // overlap kernels and Propagate's weighted fixpoint.
      OverlapAlignOptions oopt = options_.overlap;
      oopt.threads = ResolveThreads(options_.refinement.threads);
      oopt.propagate.refinement = options_.refinement;
      OverlapAlignResult r = OverlapAlign(cg, oopt);
      outcome.partition = std::move(r.xi.partition);
      outcome.weights = std::move(r.xi.weight);
      outcome.phases.enrich_ms = r.enrich_ms;
      outcome.phases.overlap_index_ms = r.index_ms;
      outcome.phases.match_ms = r.match_ms;
      break;
    }
  }
  outcome.seconds = timer.ElapsedSeconds();
  // refine_ms is the method core minus the overlap sub-phases (for the
  // non-overlap methods that difference is the whole method); clamp the
  // tiny negative values double rounding can produce.
  outcome.phases.refine_ms =
      std::max(0.0, 1000.0 * outcome.seconds - outcome.phases.enrich_ms -
                        outcome.phases.overlap_index_ms -
                        outcome.phases.match_ms);
  WallTimer stats_timer;
  const size_t threads = ResolveThreads(options_.refinement.threads);
  outcome.edge_stats = ComputeEdgeAlignment(cg, outcome.partition, threads);
  outcome.node_stats = ComputeNodeAlignment(cg, outcome.partition, threads);
  outcome.phases.stats_ms = stats_timer.ElapsedMillis();
  return outcome;
}

}  // namespace rdfalign
