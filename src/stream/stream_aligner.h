// StreamAligner: continuous alignment of a live target graph against a
// frozen source version (docs/stream.md).
//
// The aligner keeps one worklist engine alive across update batches
// (store/update_fragment.h) and maintains the alignment partition
// incrementally:
//
//  * Non-blank nodes are classed by label: under both supported methods
//    their classes are fixed by label alone and never refine. A created
//    node whose label the frozen source holds joins that source node's
//    class with zero refinement work; any other label's class is empty at
//    that point (a batch cannot create a label live in the target), so the
//    node opens a fresh singleton class.
//  * Blank nodes are re-refined only when the batch can actually affect
//    them: some blank's out-neighborhood changed, or a blank was created.
//    kDeblank's initial partition has *one* blank class, so the minimal
//    sound reset region that is closed under that initial partition is all
//    live blanks — they are moved onto one fresh color, seeded dirty, and
//    the engine resumes (RunInPlace) from its persistent state. Rounds
//    re-sign only dirty blanks, exactly the machinery the batch path uses,
//    and a batch touching no blank skips the engine entirely. The
//    "characterizing set" exact-maintenance alternative (Luo et al.,
//    arXiv:1210.0748) is named future work in docs/stream.md.
//  * The alignment delta is read off class cells: the live blanks' old
//    colors, snapshotted before the reset, against their colors after the
//    fixpoint. Only old classes that split or lost a member, and new
//    classes that gained members from more than one old class, are
//    crossed into pairs.
//  * Right after the reset, when dead colors outnumber live ones, the
//    engine renumbers its colors densely (WorklistEngine::CompactColors),
//    so a kDeblank session whose pushes reset blanks keeps its color
//    space and per-color arrays bounded. Pushes without a reset (every
//    kTrivial push, and kDeblank pushes that only create or retire
//    labels) never compact; their fresh label colors stay allocated.
//
// Supported methods: kTrivial and kDeblank. kHybrid and above refine
// X = UN(λ_Trivial): every blank plus each non-literal whose label occurs
// on one side only. X is a function of labels, so an edit can move nodes
// into or out of it (and they would have to be re-blanked); that has no
// incremental form here yet.
//
// Batch-equivalence contract: after any update sequence, the live
// partition and the cumulatively applied alignment-pair deltas are
// bit-identical (after dense renumbering) to running the batch aligner on
// the final versions — CheckBatchEquivalence pins it, tests/stream_test.cc
// and bench/stream_bench.cc enforce it.

#ifndef RDFALIGN_STREAM_STREAM_ALIGNER_H_
#define RDFALIGN_STREAM_STREAM_ALIGNER_H_

#include <memory>
#include <string>
#include <vector>

#include "core/aligner.h"
#include "core/partition.h"
#include "core/worklist_engine.h"
#include "store/update_fragment.h"
#include "stream/dynamic_graph.h"
#include "util/result.h"

namespace rdfalign::stream {

/// One aligned pair by node label, the stable identity deltas are emitted
/// in (stream node ids are meaningless to consumers).
struct LabeledPair {
  TermKind src_kind;
  TermKind tgt_kind;
  std::string src_lex;
  std::string tgt_lex;

  friend bool operator==(const LabeledPair& a, const LabeledPair& b) {
    return a.src_kind == b.src_kind && a.tgt_kind == b.tgt_kind &&
           a.src_lex == b.src_lex && a.tgt_lex == b.tgt_lex;
  }
  friend bool operator<(const LabeledPair& a, const LabeledPair& b) {
    if (a.src_kind != b.src_kind) return a.src_kind < b.src_kind;
    if (a.src_lex != b.src_lex) return a.src_lex < b.src_lex;
    if (a.tgt_kind != b.tgt_kind) return a.tgt_kind < b.tgt_kind;
    return a.tgt_lex < b.tgt_lex;
  }
};

/// Outcome of applying one update batch.
struct StreamBatchResult {
  uint64_t sequence = 0;
  size_t applied_adds = 0;
  size_t ignored_adds = 0;  ///< already-present triples (set semantics)
  size_t applied_removes = 0;
  size_t ignored_removes = 0;  ///< already-absent triples
  size_t new_nodes = 0;
  size_t removed_nodes = 0;
  /// True when the batch could affect blank classes and the engine ran.
  bool refined = false;
  size_t iterations = 0;
  size_t dirty_total = 0;  ///< node re-signings across the resumed rounds
  /// The alignment delta: pairs that stopped/started holding. Sorted,
  /// disjoint. Applying every delta in sequence to the open-time pair set
  /// reproduces CurrentPairs() exactly.
  std::vector<LabeledPair> removed_pairs;
  std::vector<LabeledPair> added_pairs;
  double apply_ms = 0;
  double refine_ms = 0;
  double delta_ms = 0;
};

struct StreamOptions {
  AlignMethod method = AlignMethod::kDeblank;
  /// Signing workers for resumed refinement rounds (0 = hardware threads).
  size_t threads = 1;
};

/// Summary of a batch-equivalence check.
struct StreamCheckResult {
  size_t live_nodes = 0;
  size_t classes = 0;
};

class StreamAligner {
 public:
  /// Opens a stream session: builds the combined overlay graph and runs
  /// the method's initial fixpoint. `source` and `target` must share one
  /// Dictionary.
  static Result<std::unique_ptr<StreamAligner>> Open(
      const TripleGraph& source, const TripleGraph& target,
      const StreamOptions& options);

  /// Applies one update batch and returns the alignment delta. Errors
  /// (unresolvable or duplicate node references, RDF-positional
  /// violations, retiring a still-referenced node) can leave the session
  /// state partially updated: treat any error as fatal to the session.
  Result<StreamBatchResult> Apply(const store::UpdateBatch& batch);

  /// The current alignment as labeled pairs, sorted (see LabeledPair).
  std::vector<LabeledPair> CurrentPairs() const;
  /// CurrentPairs().size(), without building the pairs.
  size_t NumCurrentPairs() const;

  /// Verifies the live partition against a from-scratch batch alignment of
  /// (batch_source, batch_target) — the final versions after every applied
  /// update. The two graphs must share a Dictionary with each other (not
  /// necessarily with this session); nodes are matched by label. Returns
  /// the check summary or an error describing the first divergence.
  Result<StreamCheckResult> CheckBatchEquivalence(
      const TripleGraph& batch_source, const TripleGraph& batch_target) const;

  const DynamicGraph& graph() const { return *graph_; }
  const StreamOptions& options() const { return options_; }
  /// Engine-side class count upper bound (includes emptied classes).
  /// Right after a kDeblank push that resets blanks it is at most twice
  /// the live classes plus that push's allocation; pushes without a reset
  /// never compact, so it only grows across them.
  size_t NumColorsAllocated() const { return engine_->next_color(); }
  /// Statistics of the open-time initial fixpoint.
  const RefinementStats& open_stats() const { return open_stats_; }
  uint64_t batches_applied() const { return batches_applied_; }

 private:
  using Engine = internal::WorklistEngine<DynamicGraph>;

  StreamAligner(const StreamOptions& options) : options_(options) {}

  /// A live blank and its color before a push's reset.
  struct BlankCell {
    NodeId node;
    ColorId old;
  };

  LabeledPair MakePair(NodeId src, NodeId tgt) const;
  std::vector<BlankCell> LiveBlankCells() const;
  /// Appends the blank pairs that stopped and started holding since
  /// `before`, the live blanks' cells taken before the reset, when the
  /// engine had allocated `old_colors` colors.
  void AppendCellDelta(const std::vector<BlankCell>& before,
                       ColorId old_colors, StreamBatchResult* res);
  /// The source node with `n`'s label, or kInvalidNode.
  NodeId SourceNodeOf(NodeId n) const;

  StreamOptions options_;
  std::unique_ptr<DynamicGraph> graph_;
  std::unique_ptr<Engine> engine_;
  RefinementStats open_stats_;

  /// The frozen source's nodes by (kind, LexId). Under both methods a
  /// non-blank class is exactly one label's nodes, so this also finds the
  /// class a created non-blank joins and its one source partner.
  std::unordered_map<uint64_t, NodeId> src_by_label_;
  /// Every blank node id ever live (source + target + appended); dead ones
  /// are filtered on use.
  std::vector<NodeId> blank_nodes_;
  /// AppendCellDelta's per-color marks; all kInvalidColor between pushes.
  std::vector<ColorId> class_mark_;
  uint64_t batches_applied_ = 0;
};

}  // namespace rdfalign::stream

#endif  // RDFALIGN_STREAM_STREAM_ALIGNER_H_
