// Internal: the incremental dirty-node worklist engine behind every
// refinement fixpoint (plain, keyed, and mediation-aware contextual), and —
// since the streaming subsystem landed — behind the continuous alignment
// maintenance of src/stream/.
//
// The engine generalizes the PR-1 worklist algorithm along three axes:
//
//  * **Signature shape.** A node's signature is [own color, out-pairs...]
//    as before, optionally restricted by a predicate mask (keyed
//    refinement) and optionally extended — for predicate-only URIs — by a
//    mediation section [separator, (λ(s), λ(o)) pairs...] over the triples
//    the node mediates (contextual refinement, §5.1 of the paper).
//    Dirtiness follows the signature shape: a changed node dirties its
//    in-neighbors (Graph::In) and, when mediation is configured, the
//    predicate-only nodes mediating it (MediationIndex::
//    MediatingPredicates).
//
//  * **Chunked signing.** A round's worklist is cut into `kSignGrain`-wide
//    chunks by ParallelChunks (a plan that depends on the round width
//    only) and each chunk is signed into its own slab, on the shared pool
//    when `threads` > 1; one serial merge then conses the slabs in chunk
//    order, which is worklist order, so the resulting partition is
//    bit-identical for every thread count. Signing only reads shared
//    state (colors, graph, indexes); all writes happen in the merge. See
//    docs/refinement.md.
//
//  * **Graph abstraction + re-entry.** The engine is a template over the
//    graph type: it needs only `NumNodes()`, `Out(n)` (a range of
//    PredicateObject, sorted), and `In(n)` (an iterable of NodeId that is
//    a *superset* of the true in-neighborhood — over-approximate dirtiness
//    is absorbed by the stored-anchor match). The batch entry point
//    RunWorklistFixpoint instantiates it for TripleGraph and produces the
//    historical partitions bit for bit. A StreamAligner instead keeps one
//    engine alive across update batches: between Run calls it may append
//    nodes (AppendNode), allocate fresh colors (AllocateColor), reset the
//    color of affected nodes (OverrideColor), retire dead nodes
//    (RetireNode), seed the worklist (SeedDirty), renumber the colors
//    densely (CompactColors), and resume the fixpoint with RunInPlace —
//    the persistent cons state (stored class anchors, class sizes,
//    monotone color allocation) carries over, so resumed rounds cost only
//    the dirty region. See docs/stream.md for how the reset discipline
//    keeps resumed fixpoints equal to batch recomputation.
//
// This header is shared by core/refinement.cc, core/context.cc, and
// src/stream/; it is not part of the public API surface.

#ifndef RDFALIGN_CORE_WORKLIST_ENGINE_H_
#define RDFALIGN_CORE_WORKLIST_ENGINE_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

#include "core/context.h"
#include "core/partition.h"
#include "core/refinement.h"
#include "rdf/graph.h"
#include "util/hash.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace rdfalign {
namespace internal {

/// Separates the out-pair section of a signature from the mediation-pair
/// section. Color ids are allocated upward from the initial partition's
/// dense ids (and a stream push that resets blanks compacts them back to
/// dense, see WorklistEngine::CompactColors), so a batch run can never
/// reach this value on any realistic graph; the Definition 3 reference
/// step (tests/pipeline_oracle.h) relies on the same property. A stream
/// session without such pushes has no guard yet (ROADMAP item 3).
inline constexpr uint32_t kMediationSeparator = 0xfffffffe;

/// What the worklist engine signs and how.
struct WorklistConfig {
  /// Keyed refinement: only out-pairs whose predicate is marked enter the
  /// signature. Null = all pairs.
  const std::vector<uint8_t>* predicate_mask = nullptr;
  /// Contextual refinement: both non-null or both null. Nodes flagged in
  /// `predicate_only` carry a mediation signature drawn from `mediation`,
  /// and dirtiness additionally follows MediatingPredicates().
  const MediationIndex* mediation = nullptr;
  const std::vector<uint8_t>* predicate_only = nullptr;
  /// Resolved signing-worker count (>= 1); see rdfalign::ResolveThreads().
  size_t threads = 1;
};

/// Worklist entries per signing chunk. A round at most this wide is one
/// chunk and is signed inline; a wider round splits into ParallelChunks'
/// plan for its width, whatever the thread count.
inline constexpr size_t kSignGrain = 4096;

// Colors live in a monotonically growing (non-dense) id space; within a
// Run an id is never reused, so a color identifies one class. The one
// exception is CompactColors, which only a stream session calls, between
// Runs, right after its reset has emptied every refined class: it renumbers
// the non-empty classes densely in ascending order.
// Each round re-signs only the dirty nodes — initially the seeded worklist,
// afterwards the nodes whose signature can mention a color that changed in
// the previous round (out-neighbors via Graph::In, plus mediating
// predicate-only nodes via MediationIndex::MediatingPredicates under
// contextual refinement). Dirty nodes of one class are grouped by signature
// through an allocation-free cons table: the signature is built in its
// chunk's reused slab, keyed by its 64-bit hash, and verified word-for-word
// against the round arena on hash hits.
//
// Split rule for a class c with d dirty members out of s total:
//   * a group whose signature equals the class's stored anchor signature
//     keeps color c (its members did not really change — this absorbs
//     over-approximate dirtiness, e.g. keyed refinement propagating along
//     non-key edges, or a stale In() entry of a mutable stream graph);
//   * otherwise, if d == s, the largest group keeps color c (pure
//     relabeling; smaller groups split off) and re-anchors the stored
//     signature;
//   * every other group receives a fresh color and its members are marked
//     changed, which makes their observers dirty next round.
// Nodes that keep their color are not marked changed, so references to them
// in signatures of clean nodes stay valid. See docs/refinement.md for the
// correctness argument.
template <class Graph>
class WorklistEngine {
 public:
  WorklistEngine(const Graph& g, const Partition& initial,
                 const std::vector<NodeId>& x, const WorklistConfig& cfg)
      : g_(g),
        cfg_(cfg),
        colors_(initial.colors()),
        next_color_(static_cast<ColorId>(initial.NumColors())) {
    assert((cfg.mediation == nullptr) == (cfg.predicate_only == nullptr));
    const size_t n = g.NumNodes();
    class_size_.assign(next_color_, 0);
    for (ColorId c : colors_) ++class_size_[c];
    class_sig_.assign(next_color_, StoredSig{});
    class_head_.assign(next_color_, kNoGroup);
    class_dirty_.assign(next_color_, 0);
    in_x_.assign(n, 0);
    dirty_flag_.assign(n, 0);
    dirty_.reserve(x.size());
    for (NodeId node : x) {
      in_x_[node] = 1;
      if (!dirty_flag_[node]) {
        dirty_flag_[node] = 1;
        dirty_.push_back(node);
      }
    }
  }

  /// Runs to stabilization and *consumes* the color state — the one-shot
  /// batch entry point (RunWorklistFixpoint).
  Partition Run(RefinementStats* stats) {
    RunInPlace(stats);
    return Partition::FromColors(std::move(colors_));
  }

  /// Runs to stabilization, keeping the engine state alive for later
  /// re-entry. Safe to call repeatedly; a call with an empty worklist is a
  /// no-op (counted as one vacuous iteration in `stats`).
  void RunInPlace(RefinementStats* stats) {
    size_t iterations = 0;
    double first_round_ms = 0;
    const size_t hard_cap = g_.NumNodes() + 2;
    while (!dirty_.empty() && iterations < hard_cap) {
      ++iterations;
      if (stats != nullptr) {
        stats->dirty_per_iteration.push_back(dirty_.size());
      }
      WallTimer round_timer;
      SignDirtyNodes();
      AssignColors();
      InstallAndPropagate();
      if (iterations == 1) first_round_ms = round_timer.ElapsedMillis();
    }
    if (stats != nullptr) {
      // An empty worklist still counts as one (vacuous) stabilizing step,
      // matching the accounting of iterating the reference step.
      stats->iterations = iterations == 0 ? 1 : iterations;
      stats->signature_bytes = signature_bytes_;
      stats->first_round_ms = first_round_ms;
      stats->threads_used = cfg_.threads;
    }
  }

  // ---- re-entry surface (persistent use by src/stream/) ----

  /// Current color of every node (raw engine ids — non-dense; canonicalize
  /// with Partition::FromColors for comparisons).
  const std::vector<ColorId>& colors() const { return colors_; }
  ColorId ColorOf(NodeId n) const { return colors_[n]; }
  ColorId next_color() const { return next_color_; }

  /// Allocates a fresh, never-used color with an empty class and no stored
  /// anchor signature.
  ColorId AllocateColor() {
    const ColorId c = next_color_++;
    class_size_.push_back(0);
    class_sig_.push_back(StoredSig{});
    class_head_.push_back(kNoGroup);
    class_dirty_.push_back(0);
    return c;
  }

  /// Appends one node (the graph must already expose it) carrying color
  /// `color`; `in_x` adds it to the refinable set.
  void AppendNode(ColorId color, bool in_x) {
    assert(color < next_color_);
    colors_.push_back(color);
    ++class_size_[color];
    in_x_.push_back(in_x ? 1 : 0);
    dirty_flag_.push_back(0);
  }

  /// Moves node `n` to (already allocated) color `c` without signing —
  /// the stream reset primitive. Must not be called mid-Run.
  void OverrideColor(NodeId n, ColorId c) {
    assert(c < next_color_);
    --class_size_[colors_[n]];
    ++class_size_[c];
    colors_[n] = c;
  }

  /// Takes a retired node out of its class and out of X; its color reads
  /// kInvalidColor from then on. Must not be called mid-Run.
  void RetireNode(NodeId n) {
    --class_size_[colors_[n]];
    colors_[n] = kInvalidColor;
    in_x_[n] = 0;
  }

  /// Renumbers the non-empty classes densely, in ascending id order (so
  /// sorted signature pairs stay sorted), and drops the emptied colors and
  /// the stored anchor arena. Rounds compare signatures only for equality,
  /// so later rounds group, split and allocate exactly as they would have
  /// without it. Precondition (asserted): between Runs, and no non-empty
  /// class carries a stored anchor — a stream session calls it right after
  /// its reset, when every refined class has been emptied onto one fresh
  /// color. Batch refinement never calls it.
  void CompactColors() {
    std::vector<ColorId> remap(next_color_, kInvalidColor);
    ColorId next = 0;
    for (ColorId c = 0; c < next_color_; ++c) {
      if (class_size_[c] == 0) continue;
      assert(class_sig_[c].len == kNoStoredSig);
      class_size_[next] = class_size_[c];
      remap[c] = next++;
    }
    for (ColorId& c : colors_) {
      if (c != kInvalidColor) c = remap[c];
    }
    next_color_ = next;
    class_size_.resize(next);
    class_sig_.assign(next, StoredSig{});
    class_head_.assign(next, kNoGroup);
    class_dirty_.assign(next, 0);
    store_.clear();
  }

  /// Seeds `n` into the next RunInPlace worklist (idempotent). `n` must be
  /// in X.
  void SeedDirty(NodeId n) {
    assert(in_x_[n]);
    if (!dirty_flag_[n]) {
      dirty_flag_[n] = 1;
      dirty_.push_back(n);
    }
  }

  size_t NumTrackedNodes() const { return colors_.size(); }

  /// Number of non-empty classes, in O(colors allocated).
  size_t NumClasses() const {
    return static_cast<size_t>(std::count_if(
        class_size_.begin(), class_size_.end(),
        [](uint32_t size) { return size > 0; }));
  }

 private:
  static constexpr uint32_t kNoGroup = 0xffffffffu;
  static constexpr uint32_t kNoStoredSig = 0xffffffffu;

  // Anchor signature of a class, in the persistent store arena.
  struct StoredSig {
    uint64_t hash = 0;
    size_t offset = 0;
    uint32_t len = kNoStoredSig;  // kNoStoredSig: class predates any consing
  };

  // One distinct signature observed among a class's dirty members this
  // round.
  struct Group {
    uint64_t hash;
    size_t offset;  // into the round arena
    uint32_t len;
    ColorId cls;      // class being split (== first signature word)
    uint32_t count;   // dirty members carrying this signature
    uint32_t next_in_class;
    ColorId new_color;
  };

  // The signatures of one contiguous worklist chunk, concatenated, plus
  // per-node lengths and hashes. A chunk only ever touches its own slab.
  struct SignSlab {
    std::vector<uint32_t> words;
    std::vector<uint32_t> lens;
    std::vector<uint64_t> hashes;
    std::vector<uint64_t> pairs;  // scratch reused across the chunk's nodes
  };

  // Appends the signature of `node` w.r.t. the current colors to `words`:
  // [own color, (hi,lo) of each distinct out-pair, ascending], plus — for
  // predicate-only nodes under contextual refinement — a mediation section
  // [separator, (hi,lo) of each distinct (λ(s), λ(o)) mediated pair].
  // Reads only shared immutable round state, so chunks may run it
  // concurrently.
  void AppendSignature(NodeId node, std::vector<uint64_t>& pairs,
                       std::vector<uint32_t>& words) const {
    auto append_pairs = [&] {
      std::sort(pairs.begin(), pairs.end());
      pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
      for (uint64_t pair : pairs) {
        words.push_back(UnpackHi(pair));
        words.push_back(UnpackLo(pair));
      }
    };
    pairs.clear();
    for (const PredicateObject& po : g_.Out(node)) {
      if (cfg_.predicate_mask != nullptr && !(*cfg_.predicate_mask)[po.p]) {
        continue;
      }
      pairs.push_back(PackPair(colors_[po.p], colors_[po.o]));
    }
    words.push_back(colors_[node]);
    append_pairs();
    if (cfg_.mediation != nullptr && (*cfg_.predicate_only)[node]) {
      words.push_back(kMediationSeparator);
      pairs.clear();
      // MediationIndex reuses PredicateObject as a (subject, object) pair.
      for (const PredicateObject& so : cfg_.mediation->Mediated(node)) {
        pairs.push_back(PackPair(colors_[so.p], colors_[so.o]));
      }
      append_pairs();
    }
  }

  // Finds or creates the group holding the signature sig[0..len); verifies
  // content against the round arena on hash hits (the collision policy).
  uint32_t ConsGroup(const uint32_t* sig, uint32_t len, uint64_t hash,
                     size_t table_mask) {
    size_t slot = hash & table_mask;
    while (true) {
      uint32_t gi = table_[slot];
      if (gi == kNoGroup) {
        gi = static_cast<uint32_t>(groups_.size());
        Group grp;
        grp.hash = hash;
        grp.offset = round_arena_.size();
        grp.len = len;
        grp.cls = sig[0];
        grp.count = 1;
        grp.new_color = grp.cls;
        if (class_head_[grp.cls] == kNoGroup) touched_.push_back(grp.cls);
        grp.next_in_class = class_head_[grp.cls];
        class_head_[grp.cls] = gi;
        round_arena_.insert(round_arena_.end(), sig, sig + len);
        groups_.push_back(grp);
        table_[slot] = gi;
        return gi;
      }
      Group& grp = groups_[gi];
      if (grp.hash == hash && grp.len == len &&
          std::equal(sig, sig + len, round_arena_.begin() + grp.offset)) {
        ++grp.count;
        return gi;
      }
      slot = (slot + 1) & table_mask;
    }
  }

  // Signs the worklist chunk by chunk into slabs (pure reads of shared
  // state, private writes), then conses the prebuilt signatures on one
  // thread in chunk order. The chunk plan depends only on the round width
  // and chunk order is worklist order, so group ids, fresh-color
  // allocation order, and hence the partition are the same for every
  // thread count and every schedule.
  void SignDirtyNodes() {
    const size_t n = dirty_.size();
    const size_t chunks = PlanChunks(n, kSignGrain);
    if (slabs_.size() < chunks) slabs_.resize(chunks);
    ParallelChunks(n, cfg_.threads, kSignGrain,
                   [this](size_t c, size_t begin, size_t end) {
                     SignSlab& slab = slabs_[c];
                     slab.words.clear();
                     slab.lens.clear();
                     slab.hashes.clear();
                     for (size_t i = begin; i < end; ++i) {
                       const size_t start = slab.words.size();
                       AppendSignature(dirty_[i], slab.pairs, slab.words);
                       const size_t len = slab.words.size() - start;
                       slab.lens.push_back(static_cast<uint32_t>(len));
                       slab.hashes.push_back(
                           HashU32Span(slab.words.data() + start, len));
                     }
                   });
    size_t cap = 16;
    while (cap < n * 2) cap <<= 1;
    table_.assign(cap, kNoGroup);
    groups_.clear();
    round_arena_.clear();
    group_of_.resize(n);
    size_t i = 0;
    for (size_t c = 0; c < chunks; ++c) {
      const SignSlab& slab = slabs_[c];
      size_t offset = 0;
      for (size_t k = 0; k < slab.lens.size(); ++k, ++i) {
        group_of_[i] = ConsGroup(slab.words.data() + offset, slab.lens[k],
                                 slab.hashes[k], cap - 1);
        offset += slab.lens[k];
        ++class_dirty_[node_color(i)];
      }
      signature_bytes_ += slab.words.size() * sizeof(uint32_t);
    }
    assert(i == n);
  }

  ColorId node_color(size_t dirty_index) const {
    return colors_[dirty_[dirty_index]];
  }

  // Copies a group's signature into the persistent store arena, with the
  // own-color word rewritten to `own`: members of a fresh class carry the
  // fresh color from now on, and a later (possibly spurious) re-signing
  // must compare against [current color, pairs], not the split-off source.
  StoredSig Store(const Group& grp, ColorId own) {
    StoredSig s;
    s.hash = 0;  // filled below
    s.offset = store_.size();
    s.len = grp.len;
    store_.push_back(own);
    store_.insert(store_.end(), round_arena_.begin() + grp.offset + 1,
                  round_arena_.begin() + grp.offset + grp.len);
    s.hash = HashU32Span(store_.data() + s.offset, s.len);
    return s;
  }

  bool MatchesStored(const Group& grp, const StoredSig& stored) const {
    return stored.len != kNoStoredSig && grp.hash == stored.hash &&
           grp.len == stored.len &&
           std::equal(round_arena_.begin() + grp.offset,
                      round_arena_.begin() + grp.offset + grp.len,
                      store_.begin() + static_cast<ptrdiff_t>(stored.offset));
  }

  void AssignColors() {
    for (ColorId cls : touched_) {
      const uint32_t dirty_count = class_dirty_[cls];
      const uint32_t size = class_size_[cls];
      uint32_t match_gi = kNoGroup;
      uint32_t largest_gi = kNoGroup;
      for (uint32_t gi = class_head_[cls]; gi != kNoGroup;
           gi = groups_[gi].next_in_class) {
        if (MatchesStored(groups_[gi], class_sig_[cls])) match_gi = gi;
        if (largest_gi == kNoGroup ||
            groups_[gi].count > groups_[largest_gi].count) {
          largest_gi = gi;
        }
      }
      uint32_t keep_gi = match_gi;
      if (keep_gi == kNoGroup && dirty_count == size) keep_gi = largest_gi;
      for (uint32_t gi = class_head_[cls]; gi != kNoGroup;
           gi = groups_[gi].next_in_class) {
        Group& grp = groups_[gi];
        if (gi == keep_gi) {
          grp.new_color = cls;
          if (gi != match_gi) class_sig_[cls] = Store(grp, cls);
        } else {
          grp.new_color = next_color_++;
          class_sig_.push_back(Store(grp, grp.new_color));
          class_size_.push_back(grp.count);
        }
      }
      class_size_[cls] =
          size - dirty_count +
          (keep_gi != kNoGroup ? groups_[keep_gi].count : 0);
      class_head_[cls] = kNoGroup;
      class_dirty_[cls] = 0;
    }
    touched_.clear();
    class_head_.resize(next_color_, kNoGroup);
    class_dirty_.resize(next_color_, 0);
  }

  void InstallAndPropagate() {
    for (NodeId node : dirty_) dirty_flag_[node] = 0;
    next_dirty_.clear();
    changed_.clear();
    for (size_t i = 0; i < dirty_.size(); ++i) {
      const NodeId node = dirty_[i];
      const ColorId next = groups_[group_of_[i]].new_color;
      if (next != colors_[node]) {
        colors_[node] = next;
        changed_.push_back(node);
      }
    }
    for (NodeId moved : changed_) {
      for (NodeId subject : g_.In(moved)) {
        if (in_x_[subject] && !dirty_flag_[subject]) {
          dirty_flag_[subject] = 1;
          next_dirty_.push_back(subject);
        }
      }
      if (cfg_.mediation != nullptr) {
        // A mediation signature mentions the colors of the subjects and
        // objects of the mediated triples; only predicate-only nodes carry
        // one, so the dirtiness is exact after the flag filter.
        for (NodeId pred : cfg_.mediation->MediatingPredicates(moved)) {
          if (in_x_[pred] && (*cfg_.predicate_only)[pred] &&
              !dirty_flag_[pred]) {
            dirty_flag_[pred] = 1;
            next_dirty_.push_back(pred);
          }
        }
      }
    }
    dirty_.swap(next_dirty_);
  }

  const Graph& g_;
  const WorklistConfig cfg_;

  std::vector<ColorId> colors_;
  ColorId next_color_;
  std::vector<uint32_t> class_size_;   // members per color
  std::vector<StoredSig> class_sig_;   // anchor signature per color
  std::vector<uint32_t> store_;        // persistent anchor arena

  std::vector<uint8_t> in_x_;
  std::vector<uint8_t> dirty_flag_;
  std::vector<NodeId> dirty_;
  std::vector<NodeId> next_dirty_;
  std::vector<NodeId> changed_;

  // Per-round consing state (capacity reused across rounds).
  std::vector<uint32_t> table_;        // open addressing: group index
  std::vector<Group> groups_;
  std::vector<uint32_t> round_arena_;
  std::vector<uint32_t> group_of_;     // parallel to dirty_
  std::vector<ColorId> touched_;       // classes with dirty members
  std::vector<uint32_t> class_head_;   // per-color group chain head
  std::vector<uint32_t> class_dirty_;  // per-color dirty member count
  std::vector<SignSlab> slabs_;        // per-chunk signing output

  size_t signature_bytes_ = 0;
};

/// Runs the worklist fixpoint to stabilization and returns the refined
/// partition; `stats` (optional) receives the complete telemetry of this
/// run. `x` entries must be valid node ids of `g`.
Partition RunWorklistFixpoint(const TripleGraph& g, const Partition& initial,
                              const std::vector<NodeId>& x,
                              const WorklistConfig& config,
                              RefinementStats* stats);

}  // namespace internal
}  // namespace rdfalign

#endif  // RDFALIGN_CORE_WORKLIST_ENGINE_H_
