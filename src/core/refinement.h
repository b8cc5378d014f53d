// The partition-refinement engine (§3.2, Definitions 3 & 4).
//
// One refinement step recolors every node n in a chosen subset X with the
// hash-consed signature
//     recolor_λ(n) = (λ(n), { (λ(p), λ(o)) | (p,o) ∈ out_G(n) })      (1)
// while nodes outside X keep their color (2). The fixpoint driver iterates
// until the induced equivalence stops changing; because a step only splits
// classes, the fixpoint is detected by a stable class count.
//
// This is the paper's "derivation tree as a DAG with simple hashing": a
// dense ColorId stands for the whole derivation tree rooted at the node.
//
// The fixpoint driver is the dirty-node worklist engine
// (core/worklist_engine.h). After the first pass over X, only nodes with an
// out-neighbor whose color changed in the previous round are re-signed;
// every other node keeps its color with zero work. Signatures are consed
// through a 64-bit hash into a shared arena with collision verification, so
// steady-state rounds perform no per-node heap allocation. Wide rounds —
// the first round especially, which signs all of X — are signed in chunks
// on the shared pool (RefinementOptions::threads) with a deterministic
// merge that keeps the partition bit-identical across thread counts. See
// docs/refinement.md for the invariants.
//
// The one-step functions (BisimRefineStep, BisimRefineStepKeyed) are the
// direct transcription of Definition 3. No production path calls them, so
// they live with the test oracles (tests/pipeline_oracle.h): iterating a
// step until the class count stops changing yields the engine's fixpoint,
// bit for bit.

#ifndef RDFALIGN_CORE_REFINEMENT_H_
#define RDFALIGN_CORE_REFINEMENT_H_

#include <vector>

#include "core/partition.h"
#include "rdf/graph.h"

namespace rdfalign {

/// Tuning of the fixpoint drivers.
struct RefinementOptions {
  /// Signing workers for wide refinement rounds. 1 = sequential (default);
  /// 0 = one worker per hardware thread.
  /// Any setting yields a bit-identical partition: rounds are signed in
  /// fixed-width chunks (internal::kSignGrain) and a single deterministic
  /// merge conses the signatures in worklist order.
  size_t threads = 1;
};

/// Telemetry of a refinement run.
struct RefinementStats {
  size_t iterations = 0;      ///< steps executed (incl. the stabilizing one)
  size_t final_classes = 0;   ///< classes in the fixpoint partition
  size_t initial_classes = 0; ///< classes in the input partition
  /// Nodes re-signed per iteration: the worklist size of each round.
  std::vector<size_t> dirty_per_iteration;
  /// Total bytes of signature words built while signing nodes (counted per
  /// re-signing, including signatures deduplicated by the cons table — a
  /// measure of signing work, not of cons-table memory).
  size_t signature_bytes = 0;
  /// Wall-clock of the first refinement round, the one that signs all of X
  /// (the parallel-signing target).
  double first_round_ms = 0.0;
  /// Resolved signing-worker count (>= 1).
  size_t threads_used = 0;

  /// Sum of dirty_per_iteration: total node re-signings performed.
  size_t TotalDirty() const {
    size_t total = 0;
    for (size_t d : dirty_per_iteration) total += d;
    return total;
  }
};

/// Fixpoint refinement BisimRefine*_X(λ) (Definition 4): applies the step
/// until the partition stabilizes, on the worklist engine.
Partition BisimRefineFixpoint(const TripleGraph& g, Partition initial,
                              const std::vector<NodeId>& x,
                              RefinementStats* stats = nullptr,
                              const RefinementOptions& options = {});

/// Blank(λ, X): resets the color of every node in X to one shared fresh
/// "blank" color (eq. 3) — the precursor of the hybrid alignment and of
/// weighted propagation.
Partition BlankColors(const Partition& p, const std::vector<NodeId>& x);

// --- key-restricted refinement (§6 future work) ----------------------------
//
// "variants of our approach where only selected parts of the outbound
//  neighborhood are used, for instance specified by a notion of a key for
//  graph databases, possibly allowing to align nodes of graphs following
//  different structure."
//
// A *graph key* is a set of predicates; keyed refinement identifies a node
// by the key attributes only, so nodes agreeing on the key align even when
// their non-key attributes changed.

/// Builds a per-node mask marking the nodes whose URI label is one of
/// `predicate_uris` (the key predicates).
std::vector<uint8_t> BuildPredicateMask(
    const TripleGraph& g, const std::vector<std::string>& predicate_uris);

/// Fixpoint refinement that signs only out-pairs whose predicate node is
/// marked in `predicate_mask`, on the worklist engine.
Partition BisimRefineFixpointKeyed(const TripleGraph& g, Partition initial,
                                   const std::vector<NodeId>& x,
                                   const std::vector<uint8_t>& predicate_mask,
                                   RefinementStats* stats = nullptr,
                                   const RefinementOptions& options = {});

}  // namespace rdfalign

#endif  // RDFALIGN_CORE_REFINEMENT_H_
