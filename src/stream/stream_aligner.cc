#include "stream/stream_aligner.h"

#include <algorithm>
#include <cassert>

#include "core/deblank.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace rdfalign::stream {

namespace {

uint64_t LabelKey(TermKind kind, LexId lex) {
  return (static_cast<uint64_t>(kind) << 32) | lex;
}

/// Removes the exact duplicates between two sorted pair lists: a node
/// created and retired within one batch contributes its pairs to both
/// sides with net effect "absent", which dropping from both preserves
/// (the pair was not in the cumulative set before the batch either).
void DropCommonPairs(std::vector<LabeledPair>* removed,
                     std::vector<LabeledPair>* added) {
  std::vector<LabeledPair> common;
  std::set_intersection(removed->begin(), removed->end(), added->begin(),
                        added->end(), std::back_inserter(common));
  if (common.empty()) return;
  auto prune = [&common](std::vector<LabeledPair>* v) {
    std::vector<LabeledPair> kept;
    std::set_difference(v->begin(), v->end(), common.begin(), common.end(),
                        std::back_inserter(kept));
    v->swap(kept);
  };
  prune(removed);
  prune(added);
}

/// A node filed under a class, with one more color to compare pairs by.
struct Member {
  ColorId cls;
  NodeId node;
  ColorId other;
  bool operator<(const Member& m) const {
    return cls != m.cls ? cls < m.cls : node < m.node;
  }
};

/// The members of `members` whose class's members do not all carry one
/// `other` color (kInvalidColor counts as different from everything).
/// `marks` is per-class scratch, all kInvalidColor on entry and on return.
std::vector<Member> MixedClasses(const std::vector<Member>& members,
                                 std::vector<ColorId>& marks) {
  constexpr ColorId kMixed = kInvalidColor - 1;
  for (const Member& m : members) {
    ColorId& mark = marks[m.cls];
    const bool differs = mark != kInvalidColor && mark != m.other;
    mark = m.other == kInvalidColor || differs ? kMixed : m.other;
  }
  std::vector<Member> mixed;
  for (const Member& m : members) {
    if (marks[m.cls] == kMixed) mixed.push_back(m);
  }
  for (const Member& m : members) marks[m.cls] = kInvalidColor;
  return mixed;
}

/// Sorts `members` into one run per class and calls emit(src, tgt) for
/// every (source, target) pair within a run that `keep(src, tgt)` accepts.
template <class Keep, class Emit>
void CrossClasses(const DynamicGraph& g, std::vector<Member>& members,
                  Keep keep, Emit emit) {
  std::sort(members.begin(), members.end());
  for (size_t i = 0, j = 0; i < members.size(); i = j) {
    const ColorId cls = members[i].cls;
    size_t mid = i;  // source ids precede target ids
    for (j = i; j < members.size() && members[j].cls == cls; ++j) {
      if (g.InSource(members[j].node)) mid = j + 1;
    }
    for (size_t a = i; a < mid; ++a) {
      for (size_t b = mid; b < j; ++b) {
        if (keep(members[a], members[b])) {
          emit(members[a].node, members[b].node);
        }
      }
    }
  }
}

}  // namespace

Result<std::unique_ptr<StreamAligner>> StreamAligner::Open(
    const TripleGraph& source, const TripleGraph& target,
    const StreamOptions& options) {
  if (options.method != AlignMethod::kTrivial &&
      options.method != AlignMethod::kDeblank) {
    return Status::NotSupported(
        "streaming supports methods 'trivial' and 'deblank'; method '" +
        std::string(AlignMethodToString(options.method)) +
        "' refines the unaligned non-literals of the trivial alignment, "
        "a set that label edits move, and has no incremental form yet");
  }
  const size_t threads = ResolveThreads(options.threads);
  std::unique_ptr<StreamAligner> s(new StreamAligner(options));
  s->options_.threads = threads;
  RDFALIGN_ASSIGN_OR_RETURN(DynamicGraph dg,
                            DynamicGraph::Build(source, target, threads));
  s->graph_ = std::make_unique<DynamicGraph>(std::move(dg));
  const DynamicGraph& g = *s->graph_;

  const bool deblank = options.method == AlignMethod::kDeblank;
  const TripleGraph& base = g.combined().graph();
  Partition initial =
      deblank ? LabelPartition(base) : TrivialPartition(base);
  std::vector<NodeId> x;
  if (deblank) x = base.NodesOfKind(TermKind::kBlank);

  internal::WorklistConfig cfg;
  cfg.threads = threads;
  s->engine_ = std::make_unique<Engine>(*s->graph_, initial, x, cfg);
  s->engine_->RunInPlace(&s->open_stats_);
  s->open_stats_.initial_classes = initial.NumColors();
  s->open_stats_.final_classes = s->engine_->NumClasses();

  s->blank_nodes_ = base.NodesOfKind(TermKind::kBlank);
  s->src_by_label_.reserve(g.n1());
  for (NodeId n = 0; n < g.n1(); ++n) {
    s->src_by_label_.emplace(LabelKey(base.KindOf(n), base.LexicalId(n)),
                             n);
  }
  return s;
}

LabeledPair StreamAligner::MakePair(NodeId src, NodeId tgt) const {
  const DynamicGraph& g = *graph_;
  return LabeledPair{g.KindOf(src), g.KindOf(tgt),
                     std::string(g.Lexical(src)),
                     std::string(g.Lexical(tgt))};
}

std::vector<StreamAligner::BlankCell> StreamAligner::LiveBlankCells() const {
  std::vector<BlankCell> cells;
  cells.reserve(blank_nodes_.size());
  for (NodeId b : blank_nodes_) {
    if (graph_->IsLive(b)) cells.push_back({b, engine_->ColorOf(b)});
  }
  return cells;
}

void StreamAligner::AppendCellDelta(const std::vector<BlankCell>& before,
                                    ColorId old_colors,
                                    StreamBatchResult* res) {
  // Blank colors never coincide with non-blank colors (the initial
  // partitions separate them and fresh colors are only handed to blank
  // splits or fresh labels), and every blank live now was live in
  // `before`, so the blank cells alone carry the whole blank delta.
  const Engine& e = *engine_;
  class_mark_.resize(
      std::max<size_t>({class_mark_.size(), old_colors, e.next_color()}),
      kInvalidColor);
  std::vector<Member> by_old, by_new;
  by_old.reserve(before.size());
  by_new.reserve(before.size());
  for (const BlankCell& c : before) {
    const ColorId now = e.ColorOf(c.node);  // kInvalidColor once retired
    by_old.push_back({c.old, c.node, now});
    if (now != kInvalidColor) by_new.push_back({now, c.node, c.old});
  }
  auto emit_to = [this](std::vector<LabeledPair>* out) {
    return [this, out](NodeId src, NodeId tgt) {
      out->push_back(MakePair(src, tgt));
    };
  };
  // An old class whose members all survive into one new class keeps every
  // pair; one that split or lost a member loses the pairs whose ends no
  // longer share a color.
  std::vector<Member> broken = MixedClasses(by_old, class_mark_);
  CrossClasses(
      *graph_, broken,
      [](const Member& src, const Member& tgt) {
        return src.other == kInvalidColor || src.other != tgt.other;
      },
      emit_to(&res->removed_pairs));
  // A new class whose members all come from one old class makes no pair;
  // one fed by several makes the pairs whose ends came from different old
  // classes.
  std::vector<Member> joined = MixedClasses(by_new, class_mark_);
  CrossClasses(
      *graph_, joined,
      [](const Member& src, const Member& tgt) {
        return src.other != tgt.other;
      },
      emit_to(&res->added_pairs));
}

NodeId StreamAligner::SourceNodeOf(NodeId n) const {
  const auto it =
      src_by_label_.find(LabelKey(graph_->KindOf(n), graph_->LexicalId(n)));
  return it != src_by_label_.end() ? it->second : kInvalidNode;
}

Result<StreamBatchResult> StreamAligner::Apply(
    const store::UpdateBatch& batch) {
  const bool deblank = options_.method == AlignMethod::kDeblank;
  DynamicGraph& g = *graph_;
  StreamBatchResult res;
  res.sequence = batch.sequence;
  WallTimer apply_timer;

  // Resolve existing references, then create the new nodes (one at a time,
  // so a duplicate new label within the batch is caught by the lookup).
  const size_t refs = batch.nodes.size();
  std::vector<NodeId> node_of(refs, kInvalidNode);
  for (size_t i = batch.num_new; i < refs; ++i) {
    const store::UpdateBatch::NodeRef& r = batch.nodes[i];
    const NodeId n = g.FindTarget(r.kind, r.lex);
    if (n == kInvalidNode) {
      return Status::InvalidArgument(
          "update references a node absent from the live target graph: " +
          r.lex);
    }
    node_of[i] = n;
  }
  bool blank_affected = false;
  for (size_t i = 0; i < batch.num_new; ++i) {
    const store::UpdateBatch::NodeRef& r = batch.nodes[i];
    if (g.FindTarget(r.kind, r.lex) != kInvalidNode) {
      return Status::InvalidArgument(
          "update creates a node that already exists in the live target "
          "graph: " +
          r.lex);
    }
    const NodeId n = g.AddNode(r.kind, r.lex);
    node_of[i] = n;
    if (r.kind == TermKind::kBlank) {
      // A fresh blank joins refinement; until the reset below its color is
      // a fresh singleton (which is already exact under kTrivial).
      engine_->AppendNode(engine_->AllocateColor(), deblank);
      blank_nodes_.push_back(n);
      blank_affected = true;
    } else {
      // Join the source's node of this label. Without one, the label's
      // class is empty (the batch could not create a live target label),
      // so a fresh singleton is the same partition.
      const NodeId src = SourceNodeOf(n);
      engine_->AppendNode(src != kInvalidNode ? engine_->ColorOf(src)
                                              : engine_->AllocateColor(),
                          false);
    }
    ++res.new_nodes;
  }

  // Triple removals, then additions (set semantics; order within one batch
  // is immaterial because the lists are disjoint on any coherent producer
  // and no-ops are simply counted).
  for (const Triple& t : batch.removed) {
    const NodeId s = node_of[t.s];
    if (g.RemoveTriple(s, node_of[t.p], node_of[t.o])) {
      ++res.applied_removes;
      if (g.KindOf(s) == TermKind::kBlank) blank_affected = true;
    } else {
      ++res.ignored_removes;
    }
  }
  for (const Triple& t : batch.added) {
    const NodeId s = node_of[t.s];
    const NodeId p = node_of[t.p];
    const NodeId o = node_of[t.o];
    if (g.KindOf(p) != TermKind::kUri) {
      return Status::InvalidArgument(
          "update adds a triple whose predicate is not a URI: " +
          std::string(g.Lexical(p)));
    }
    if (g.KindOf(s) == TermKind::kLiteral) {
      return Status::InvalidArgument(
          "update adds a triple with a literal subject: " +
          std::string(g.Lexical(s)));
    }
    if (g.AddTriple(s, p, o)) {
      ++res.applied_adds;
      if (g.KindOf(s) == TermKind::kBlank) blank_affected = true;
    } else {
      ++res.ignored_adds;
    }
  }

  // Validate retirements against the post-update triple set.
  std::vector<NodeId> dying;
  dying.reserve(batch.removed_nodes.size());
  for (uint32_t r : batch.removed_nodes) {
    const NodeId n = node_of[r];
    if (!g.Out(n).empty()) {
      return Status::InvalidArgument(
          "update retires a node that still has outbound triples: " +
          std::string(g.Lexical(n)));
    }
    if (g.ReferencedAsPredicateOrObject(n)) {
      return Status::InvalidArgument(
          "update retires a node still referenced by live triples: " +
          std::string(g.Lexical(n)));
    }
    dying.push_back(n);
  }
  // Two references may carry one label; retiring its node twice would
  // take it out of its class twice.
  std::sort(dying.begin(), dying.end());
  const auto twice = std::adjacent_find(dying.begin(), dying.end());
  if (twice != dying.end()) {
    return Status::InvalidArgument(
        "update retires one node under two references: " +
        std::string(g.Lexical(*twice)));
  }
  if (!deblank) blank_affected = false;
  res.apply_ms = apply_timer.ElapsedMillis();

  // Alignment-delta capture, part 1: the blank cells of the *old*
  // coloring, and the label pairs of dying and new non-blanks.
  WallTimer delta_timer;
  std::vector<BlankCell> before_blanks;
  const ColorId old_colors = engine_->next_color();
  if (blank_affected) before_blanks = LiveBlankCells();
  for (NodeId n : dying) {
    if (g.KindOf(n) != TermKind::kBlank) {
      const NodeId src = SourceNodeOf(n);
      if (src != kInvalidNode) res.removed_pairs.push_back(MakePair(src, n));
    } else if (!blank_affected) {
      // A blank retired without any blank's neighborhood changing (it was
      // already isolated): drop its pairs directly; nothing else moves.
      for (NodeId b : blank_nodes_) {
        if (g.InSource(b) && g.IsLive(b) &&
            engine_->ColorOf(b) == engine_->ColorOf(n)) {
          res.removed_pairs.push_back(MakePair(b, n));
        }
      }
    }
  }
  for (size_t i = 0; i < batch.num_new; ++i) {
    const NodeId n = node_of[i];
    if (g.KindOf(n) == TermKind::kBlank) continue;
    const NodeId src = SourceNodeOf(n);
    if (src != kInvalidNode) res.added_pairs.push_back(MakePair(src, n));
  }
  res.delta_ms = delta_timer.ElapsedMillis();

  // Install the deaths, then resume refinement if any blank was affected.
  for (NodeId n : dying) {
    g.MarkDead(n);
    engine_->RetireNode(n);
    ++res.removed_nodes;
  }
  WallTimer refine_timer;
  if (blank_affected) {
    // Reset region: kDeblank's initial partition holds all blanks in one
    // class, so the sound warm-start region closed under it is every live
    // blank — one fresh shared color, all seeded. Rounds then re-sign only
    // dirty nodes; see docs/stream.md for why anything finer can miss
    // class *merges*.
    const ColorId reset = engine_->AllocateColor();
    std::vector<NodeId> live_blanks;
    live_blanks.reserve(blank_nodes_.size());
    for (NodeId b : blank_nodes_) {
      if (g.IsDead(b)) continue;
      live_blanks.push_back(b);
      engine_->OverrideColor(b, reset);
      engine_->SeedDirty(b);
    }
    blank_nodes_.swap(live_blanks);  // compact tombstones while we're here
    // Every refined class is empty now and the reset color has no anchor:
    // the one point where the colors can be renumbered.
    if (engine_->next_color() > 2 * engine_->NumClasses()) {
      engine_->CompactColors();
    }
    RefinementStats rs;
    engine_->RunInPlace(&rs);
    res.refined = true;
    res.iterations = rs.iterations;
    res.dirty_total = rs.TotalDirty();
  }
  res.refine_ms = refine_timer.ElapsedMillis();

  // Alignment-delta capture, part 2: the blank pairs the resumed
  // refinement broke and made.
  WallTimer delta2_timer;
  if (blank_affected) AppendCellDelta(before_blanks, old_colors, &res);
  std::sort(res.removed_pairs.begin(), res.removed_pairs.end());
  std::sort(res.added_pairs.begin(), res.added_pairs.end());
  DropCommonPairs(&res.removed_pairs, &res.added_pairs);
  res.delta_ms += delta2_timer.ElapsedMillis();

  ++batches_applied_;
  return res;
}

std::vector<LabeledPair> StreamAligner::CurrentPairs() const {
  std::vector<Member> members;
  for (NodeId n = 0; n < graph_->NumNodes(); ++n) {
    if (graph_->IsLive(n)) members.push_back({engine_->ColorOf(n), n, 0});
  }
  std::vector<LabeledPair> pairs;
  CrossClasses(
      *graph_, members, [](const Member&, const Member&) { return true; },
      [&](NodeId src, NodeId tgt) { pairs.push_back(MakePair(src, tgt)); });
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

size_t StreamAligner::NumCurrentPairs() const {
  std::vector<uint32_t> sources(engine_->next_color());
  std::vector<uint32_t> targets(engine_->next_color());
  for (NodeId n = 0; n < graph_->NumNodes(); ++n) {
    if (graph_->IsDead(n)) continue;
    ++(graph_->InSource(n) ? sources : targets)[engine_->ColorOf(n)];
  }
  size_t pairs = 0;
  for (size_t c = 0; c < sources.size(); ++c) {
    pairs += static_cast<size_t>(sources[c]) * targets[c];
  }
  return pairs;
}

Result<StreamCheckResult> StreamAligner::CheckBatchEquivalence(
    const TripleGraph& batch_source, const TripleGraph& batch_target) const {
  const DynamicGraph& g = *graph_;
  RDFALIGN_ASSIGN_OR_RETURN(
      CombinedGraph bcg,
      CombinedGraph::Build(batch_source, batch_target, options_.threads));
  Partition batch_partition;
  if (options_.method == AlignMethod::kDeblank) {
    RefinementOptions ropt;
    ropt.threads = options_.threads;
    batch_partition = DeblankPartition(bcg, nullptr, ropt);
  } else {
    batch_partition = TrivialPartition(bcg.graph());
  }

  const size_t batch_nodes = bcg.graph().NumNodes();
  if (g.NumLiveNodes() != batch_nodes) {
    return Status::InvalidArgument(
        "stream/batch node-count mismatch: stream has " +
        std::to_string(g.NumLiveNodes()) + " live nodes, batch graph has " +
        std::to_string(batch_nodes));
  }
  if (bcg.n1() != g.n1()) {
    return Status::InvalidArgument(
        "batch source does not match the stream's source version");
  }
  // Source side: match by label against the frozen stream source.
  const Dictionary& dict = g.combined().graph().dict();
  std::vector<ColorId> remapped(batch_nodes);
  for (NodeId i = 0; i < batch_nodes; ++i) {
    const TermKind kind = bcg.graph().KindOf(i);
    const std::string_view lex = bcg.graph().Lexical(i);
    NodeId stream_node = kInvalidNode;
    if (bcg.InSource(i)) {
      const LexId id = dict.Find(lex);
      if (id != kInvalidLex) {
        auto it = src_by_label_.find(LabelKey(kind, id));
        if (it != src_by_label_.end()) stream_node = it->second;
      }
    } else {
      stream_node = g.FindTarget(kind, lex);
    }
    if (stream_node == kInvalidNode) {
      return Status::InvalidArgument(
          "batch graph node has no live stream counterpart: " +
          std::string(lex));
    }
    remapped[i] = engine_->ColorOf(stream_node);
  }
  const Partition stream_partition =
      Partition::FromColors(std::move(remapped));
  if (stream_partition.colors() != batch_partition.colors()) {
    return Status::Internal(
        "stream partition diverges from the batch alignment of the final "
        "versions");
  }
  StreamCheckResult out;
  out.live_nodes = batch_nodes;
  out.classes = stream_partition.NumColors();
  return out;
}

}  // namespace rdfalign::stream
