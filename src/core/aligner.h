// High-level alignment API: one entry point over all methods of the paper.
//
//   Aligner aligner(options);
//   auto outcome = aligner.Align(v1, v2);           // two RDF versions
//   outcome->edge_stats.Ratio();                    // Fig. 10 metric
//
// Methods form the §3.4 hierarchy Trivial ⊆ Deblank ⊆ Hybrid, with Overlap
// (§4.7) as the edit-robust refinement on top.

#ifndef RDFALIGN_CORE_ALIGNER_H_
#define RDFALIGN_CORE_ALIGNER_H_

#include <string_view>

#include "core/alignment.h"
#include "core/overlap_align.h"
#include "core/partition.h"
#include "core/refinement.h"
#include "core/weighted_partition.h"
#include "rdf/graph.h"
#include "rdf/merge.h"
#include "util/result.h"

namespace rdfalign {

/// The alignment methods of the paper, in increasing power, plus the
/// predicate-aware extension.
enum class AlignMethod {
  kTrivial,           ///< label equality on non-blank nodes (§3.1)
  kDeblank,           ///< + bisimulation on blank nodes (§3.3)
  kHybrid,            ///< + re-identification of renamed URIs (§3.4)
  kHybridContextual,  ///< + mediation signatures for predicate-only URIs
                      ///<   (the §5.1 suggested fix; core/context.h)
  kOverlap,           ///< + edit-robust similarity via weighted partitions
                      ///<   (§4.7)
};

std::string_view AlignMethodToString(AlignMethod method);

/// Configuration of an Aligner.
struct AlignerOptions {
  AlignMethod method = AlignMethod::kHybrid;
  /// Refinement tuning and thread count for every method: the refinement
  /// fixpoints, the statistics joins, and — for kOverlap — the overlap
  /// kernels and Propagate (AlignCombined copies it into
  /// `overlap.propagate.refinement`, overriding what is set there).
  RefinementOptions refinement;
  /// Used when method == kOverlap.
  OverlapAlignOptions overlap;
};

/// Wall-clock breakdown of one alignment run, milliseconds. Phases that a
/// method does not execute stay 0 (enrich/index/match are kOverlap-only).
struct AlignPhaseTimings {
  double merge_ms = 0;          ///< CombinedGraph::Build (Align() only)
  double refine_ms = 0;         ///< partition construction (method core)
  double enrich_ms = 0;         ///< Enrich + Propagate rounds
  double overlap_index_ms = 0;  ///< characterizing sets + inverted index
  double match_ms = 0;          ///< candidate probing + σ verification
  double stats_ms = 0;          ///< edge + node alignment statistics
};

/// The result of aligning two versions.
struct AlignmentOutcome {
  /// Class structure (for kOverlap: the ξ_Overlap partition).
  Partition partition;
  /// Confidence weights; empty unless method == kOverlap.
  std::vector<double> weights;
  /// Aggregates of the final refinement run.
  RefinementStats refinement;
  /// Edge- and node-level metrics (Figs. 10-13).
  EdgeAlignmentStats edge_stats;
  NodeAlignmentStats node_stats;
  /// Wall-clock seconds of the alignment proper (excl. graph merging).
  double seconds = 0.0;
  /// Per-phase wall-clock breakdown (the CLI's --json `phases` object and
  /// bench/pipeline_bench.cc read this).
  AlignPhaseTimings phases;
};

/// Facade that runs a configured alignment method end to end.
class Aligner {
 public:
  explicit Aligner(AlignerOptions options = {}) : options_(options) {}

  /// Aligns two RDF graphs (they must share a Dictionary).
  Result<AlignmentOutcome> Align(const TripleGraph& g1,
                                 const TripleGraph& g2) const;

  /// Aligns a pre-built combined graph.
  AlignmentOutcome AlignCombined(const CombinedGraph& cg) const;

  const AlignerOptions& options() const { return options_; }

 private:
  AlignerOptions options_;
};

}  // namespace rdfalign

#endif  // RDFALIGN_CORE_ALIGNER_H_
