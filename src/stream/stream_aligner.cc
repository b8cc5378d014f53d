#include "stream/stream_aligner.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <ranges>

#include "core/deblank.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace rdfalign::stream {

namespace {

uint64_t RegistryKey(TermKind kind, LexId lex) {
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

/// Every (source, target) pair of one engine color among the live nodes in
/// `nodes`, grouped by ascending color.
template <class Nodes>
std::vector<std::pair<NodeId, NodeId>> SameColorPairs(
    const DynamicGraph& g, const internal::WorklistEngine<DynamicGraph>& e,
    const Nodes& nodes) {
  std::map<ColorId, std::pair<std::vector<NodeId>, std::vector<NodeId>>>
      by_color;
  for (NodeId n : nodes) {
    if (g.IsDead(n)) continue;
    auto& sides = by_color[e.ColorOf(n)];
    (g.InSource(n) ? sides.first : sides.second).push_back(n);
  }
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (const auto& [color, sides] : by_color) {
    for (NodeId src : sides.first) {
      for (NodeId tgt : sides.second) pairs.emplace_back(src, tgt);
    }
  }
  return pairs;
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

  // Persistent registry + the static source-side structures.
  for (NodeId n = 0; n < base.NumNodes(); ++n) {
    if (base.KindOf(n) == TermKind::kBlank) {
      s->blank_nodes_.push_back(n);
      continue;
    }
    // All nodes with one label share one initial color under both
    // methods' initial partitions, so later occurrences overwrite with
    // the same value.
    s->label_color_[RegistryKey(base.KindOf(n), base.LexicalId(n))] =
        s->engine_->ColorOf(n);
    if (g.InSource(n)) {
      s->src_nonblank_by_color_[s->engine_->ColorOf(n)].push_back(n);
    }
  }
  return s;
}

LabeledPair StreamAligner::MakePair(NodeId src, NodeId tgt) const {
  const DynamicGraph& g = *graph_;
  return LabeledPair{g.KindOf(src), g.KindOf(tgt),
                     std::string(g.Lexical(src)),
                     std::string(g.Lexical(tgt))};
}

std::vector<std::pair<NodeId, NodeId>> StreamAligner::BlankPairs() const {
  // Blank colors never coincide with non-blank colors (the initial
  // partitions separate them and fresh colors are only handed to blank
  // splits or fresh labels), so restricting to blank_nodes_ is exact.
  std::vector<std::pair<NodeId, NodeId>> pairs =
      SameColorPairs(*graph_, *engine_, blank_nodes_);
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

void StreamAligner::AppendStaticPartners(NodeId tgt, ColorId color,
                                         std::vector<LabeledPair>* out) const {
  auto it = src_nonblank_by_color_.find(color);
  if (it == src_nonblank_by_color_.end()) return;
  for (NodeId src : it->second) out->push_back(MakePair(src, tgt));
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
      const uint64_t key = RegistryKey(r.kind, g.LexicalId(n));
      auto it = label_color_.find(key);
      ColorId color;
      if (it != label_color_.end()) {
        color = it->second;  // rejoin the label's class (possibly emptied)
      } else {
        color = engine_->AllocateColor();
        label_color_.emplace(key, color);
      }
      engine_->AppendNode(color, false);
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
  if (!deblank) blank_affected = false;
  res.apply_ms = apply_timer.ElapsedMillis();

  // Alignment-delta capture, part 1: pairs as of the *old* coloring.
  WallTimer delta_timer;
  std::vector<std::pair<NodeId, NodeId>> before_blanks;
  if (blank_affected) before_blanks = BlankPairs();
  for (NodeId n : dying) {
    if (g.KindOf(n) != TermKind::kBlank) {
      AppendStaticPartners(n, engine_->ColorOf(n), &res.removed_pairs);
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
    if (g.KindOf(n) != TermKind::kBlank) {
      AppendStaticPartners(n, engine_->ColorOf(n), &res.added_pairs);
    }
  }
  res.delta_ms = delta_timer.ElapsedMillis();

  // Install the deaths, then resume refinement if any blank was affected.
  for (NodeId n : dying) {
    g.MarkDead(n);
    if (deblank && g.KindOf(n) == TermKind::kBlank) {
      engine_->SetInX(n, false);
    }
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
    RefinementStats rs;
    engine_->RunInPlace(&rs);
    res.refined = true;
    res.iterations = rs.iterations;
    res.dirty_total = rs.TotalDirty();
  }
  res.refine_ms = refine_timer.ElapsedMillis();

  // Alignment-delta capture, part 2: diff the blank pairs across the
  // resumed refinement.
  WallTimer delta2_timer;
  if (blank_affected) {
    const std::vector<std::pair<NodeId, NodeId>> after_blanks = BlankPairs();
    std::vector<std::pair<NodeId, NodeId>> gone, born;
    std::set_difference(before_blanks.begin(), before_blanks.end(),
                        after_blanks.begin(), after_blanks.end(),
                        std::back_inserter(gone));
    std::set_difference(after_blanks.begin(), after_blanks.end(),
                        before_blanks.begin(), before_blanks.end(),
                        std::back_inserter(born));
    for (const auto& [src, tgt] : gone) {
      res.removed_pairs.push_back(MakePair(src, tgt));
    }
    for (const auto& [src, tgt] : born) {
      res.added_pairs.push_back(MakePair(src, tgt));
    }
  }
  std::sort(res.removed_pairs.begin(), res.removed_pairs.end());
  std::sort(res.added_pairs.begin(), res.added_pairs.end());
  DropCommonPairs(&res.removed_pairs, &res.added_pairs);
  res.delta_ms += delta2_timer.ElapsedMillis();

  ++batches_applied_;
  return res;
}

std::vector<LabeledPair> StreamAligner::CurrentPairs() const {
  const auto all_nodes =
      std::views::iota(NodeId{0}, static_cast<NodeId>(graph_->NumNodes()));
  std::vector<LabeledPair> pairs;
  for (const auto& [src, tgt] : SameColorPairs(*graph_, *engine_, all_nodes)) {
    pairs.push_back(MakePair(src, tgt));
  }
  std::sort(pairs.begin(), pairs.end());
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
  const TripleGraph& sg = g.combined().graph();
  const Dictionary& dict = sg.dict();
  std::unordered_map<uint64_t, NodeId> src_by_label;
  src_by_label.reserve(g.n1());
  for (NodeId n = 0; n < g.n1(); ++n) {
    src_by_label.emplace(
        (static_cast<uint64_t>(sg.KindOf(n)) << 32) | sg.LexicalId(n), n);
  }
  std::vector<ColorId> remapped(batch_nodes);
  for (NodeId i = 0; i < batch_nodes; ++i) {
    const TermKind kind = bcg.graph().KindOf(i);
    const std::string_view lex = bcg.graph().Lexical(i);
    NodeId stream_node = kInvalidNode;
    if (bcg.InSource(i)) {
      const LexId id = dict.Find(lex);
      if (id != kInvalidLex) {
        auto it =
            src_by_label.find((static_cast<uint64_t>(kind) << 32) | id);
        if (it != src_by_label.end()) stream_node = it->second;
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
