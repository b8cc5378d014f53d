#include "store/delta.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstring>
#include <utility>

#include "store/atomic_writer.h"
#include "store/container.h"
#include "store/front_coding.h"
#include "util/shared_array.h"
#include "util/thread_pool.h"

namespace rdfalign::store {

namespace {

const ContainerFormat kDeltaFormat = {
    "delta",
    kDeltaMagic,
    kDeltaFormatVersion,
    kDeltaFormatVersionFrontCoded,
    sizeof(DeltaHeader),
    [](const unsigned char* header) -> std::optional<uint64_t> {
      DeltaHeader h;
      std::memcpy(&h, header, sizeof(h));
      return h.version == kDeltaFormatVersion ? kNumDeltaSections
                                              : kNumDeltaSectionsV2;
    },
    SequentialSectionId,
    [](uint32_t id) {
      return DeltaSectionName(static_cast<DeltaSectionId>(id));
    },
};

constexpr uint32_t kInvalidDense = 0xffffffffu;

/// Dense numbering of the dictionary terms a graph's labels reference, in
/// lexicographic order of the term bytes. Unlike the snapshot writer's
/// ascending-dictionary-id convention, this order is **canonical in the
/// graph's content**: the delta writer and the patch replayer resolve
/// term references identically no matter how either side's dictionary was
/// populated, so a delta applies to any base holding the right content —
/// including one materialized by an earlier patch (chained `rdfalign
/// diff`/`patch` over independently built snapshots).
struct TermBinding {
  std::vector<LexId> term_ids;     ///< dense index -> dictionary id
  std::vector<uint32_t> dense_of;  ///< dictionary id -> dense index
};

TermBinding BindTerms(const TripleGraph& g) {
  const Dictionary& dict = g.dict();
  std::vector<uint8_t> used(dict.size(), 0);
  for (const NodeLabel& l : g.labels()) {
    used[l.lex] = 1;
  }
  TermBinding b;
  for (LexId id = 0; id < used.size(); ++id) {
    if (used[id]) b.term_ids.push_back(id);
  }
  // Distinct ids hold distinct strings (the dictionary interns uniquely),
  // so the order is total and deterministic.
  std::sort(b.term_ids.begin(), b.term_ids.end(),
            [&dict](LexId a, LexId c) { return dict.Get(a) < dict.Get(c); });
  b.dense_of.assign(dict.size(), kInvalidDense);
  for (size_t j = 0; j < b.term_ids.size(); ++j) {
    b.dense_of[b.term_ids[j]] = static_cast<uint32_t>(j);
  }
  return b;
}

uint64_t FingerprintWithBinding(const TripleGraph& g, const TermBinding& b) {
  Checksummer c;
  const uint64_t n = g.NumNodes();
  const uint64_t e = g.NumEdges();
  const uint64_t t = b.term_ids.size();
  c.Update(&n, sizeof(n));
  c.Update(&e, sizeof(e));
  c.Update(&t, sizeof(t));
  for (const NodeLabel& l : g.labels()) {
    const uint8_t kind = static_cast<uint8_t>(l.kind);
    const uint32_t dense = b.dense_of[l.lex];
    c.Update(&kind, sizeof(kind));
    c.Update(&dense, sizeof(dense));
  }
  for (LexId id : b.term_ids) {
    std::string_view term = g.dict().Get(id);
    const uint64_t len = term.size();
    c.Update(&len, sizeof(len));
    c.Update(term.data(), term.size());
  }
  c.Update(g.triples().data(), g.triples().size() * sizeof(Triple));
  return c.Finish();
}

}  // namespace

std::string_view DeltaSectionName(DeltaSectionId id) {
  switch (id) {
    case DeltaSectionId::kTermSources:
      return "term_sources";
    case DeltaSectionId::kNewTermOffsets:
      return "new_term_offsets";
    case DeltaSectionId::kNewTermBlob:
      return "new_term_blob";
    case DeltaSectionId::kNodeKinds:
      return "node_kinds";
    case DeltaSectionId::kNodeLex:
      return "node_lex";
    case DeltaSectionId::kNodeRemap:
      return "node_remap";
    case DeltaSectionId::kRemovedRuns:
      return "removed_runs";
    case DeltaSectionId::kKeptRuns:
      return "kept_runs";
    case DeltaSectionId::kAddedTriples:
      return "added_triples";
    case DeltaSectionId::kNewTermPrefixLens:
      return "new_term_prefix_lens";
  }
  return "unknown";
}

uint64_t GraphFingerprint(const TripleGraph& g) {
  return FingerprintWithBinding(g, BindTerms(g));
}

Status WriteDeltaToStream(const TripleGraph& base, const TripleGraph& next,
                          const VersionNodeMap& alignment, std::ostream& out,
                          const std::string& name, DeltaWriteStats* stats) {
  static_assert(std::endian::native == std::endian::little,
                "deltas are written on little-endian hosts only");
  if (base.dict_ptr().get() != next.dict_ptr().get()) {
    return Status::InvalidArgument(
        "delta endpoints must share one Dictionary: " + name);
  }
  const size_t bn = base.NumNodes();
  const size_t be = base.NumEdges();
  const size_t nn = next.NumNodes();
  const size_t ne = next.NumEdges();
  if (alignment.next_to_base.size() != nn) {
    return Status::InvalidArgument(
        "alignment map must have one entry per next-version node: " + name);
  }
  // Invert the (injective) next -> base map.
  std::vector<NodeId> base_to_next(bn, kInvalidNode);
  for (NodeId i = 0; i < nn; ++i) {
    const NodeId b = alignment.next_to_base[i];
    if (b == kInvalidNode) continue;
    if (b >= bn) {
      return Status::InvalidArgument(
          "alignment maps a next node onto a base node out of range: " +
          name);
    }
    if (base_to_next[b] != kInvalidNode) {
      return Status::InvalidArgument("alignment map is not injective: " +
                                     name);
    }
    base_to_next[b] = i;
  }

  const TermBinding base_terms = BindTerms(base);
  const TermBinding next_terms = BindTerms(next);
  const size_t tb = base_terms.term_ids.size();
  const size_t tn = next_terms.term_ids.size();
  if (tb > kMaxDeltaTerms || tn > kMaxDeltaTerms) {
    return Status::InvalidArgument("too many dictionary terms for a delta: " +
                                   name);
  }

  // Term sources: every next-dense term either references the base term
  // table or the delta's new-term table (new terms numbered in next-dense
  // order, so the reader can validate denseness).
  std::vector<uint32_t> term_sources(tn);
  std::vector<LexId> new_terms;
  for (size_t j = 0; j < tn; ++j) {
    const LexId id = next_terms.term_ids[j];
    const uint32_t dense_b = base_terms.dense_of[id];
    if (dense_b != kInvalidDense) {
      term_sources[j] = dense_b;
    } else {
      term_sources[j] = kNewTermFlag | static_cast<uint32_t>(new_terms.size());
      new_terms.push_back(id);
    }
  }
  // New terms were pushed in next-dense order, which BindTerms defines as
  // lexicographic — exactly the order front coding wants, so the blob
  // needs no separate sort or id remap. It holds each new term's suffix
  // tail, streamed term by term.
  FrontCodedLayout layout =
      FrontCodeTerms(new_terms.size(), [&next, &new_terms](size_t k) {
        return next.dict().Get(new_terms[k]);
      });

  // The next version's node columns, in next-dense (canonical) term
  // numbering.
  std::vector<uint8_t> kinds(nn);
  std::vector<uint32_t> lex(nn);
  for (size_t i = 0; i < nn; ++i) {
    kinds[i] = static_cast<uint8_t>(next.labels()[i].kind);
    lex[i] = next_terms.dense_of[next.labels()[i].lex];
  }

  // Triple classification. A base triple is *kept* when all three nodes
  // have next-version images and the mapped triple exists in next;
  // otherwise it is removed. Next triples not claimed by a kept base
  // triple are added. The node map is injective, so distinct base triples
  // map to distinct next triples and each next triple is claimed at most
  // once.
  const std::span<const Triple> base_tris = base.triples();
  const std::span<const Triple> next_tris = next.triples();
  std::vector<uint8_t> claimed(ne, 0);
  std::vector<std::pair<uint64_t, uint64_t>> kept;  // (next pos, base idx)
  std::vector<RunEntry> removed_runs;
  uint64_t removed_count = 0;
  const auto add_removed = [&removed_runs, &removed_count](uint64_t i) {
    if (!removed_runs.empty() &&
        removed_runs.back().start + removed_runs.back().count == i) {
      ++removed_runs.back().count;
    } else {
      removed_runs.push_back(RunEntry{i, 1});
    }
    ++removed_count;
  };
  for (uint64_t i = 0; i < be; ++i) {
    const Triple& t = base_tris[i];
    const NodeId s = base_to_next[t.s];
    const NodeId p = base_to_next[t.p];
    const NodeId o = base_to_next[t.o];
    if (s == kInvalidNode || p == kInvalidNode || o == kInvalidNode) {
      add_removed(i);
      continue;
    }
    const Triple mapped{s, p, o};
    const auto it =
        std::lower_bound(next_tris.begin(), next_tris.end(), mapped);
    if (it == next_tris.end() || !(*it == mapped)) {
      add_removed(i);
      continue;
    }
    const uint64_t j = static_cast<uint64_t>(it - next_tris.begin());
    claimed[j] = 1;
    kept.emplace_back(j, i);
  }
  // Kept runs expand in next-space order; a run continues while the base
  // indexes stay consecutive.
  std::sort(kept.begin(), kept.end());
  std::vector<RunEntry> kept_runs;
  for (const auto& [j, i] : kept) {
    (void)j;
    if (!kept_runs.empty() &&
        kept_runs.back().start + kept_runs.back().count == i) {
      ++kept_runs.back().count;
    } else {
      kept_runs.push_back(RunEntry{i, 1});
    }
  }
  std::vector<Triple> added;
  added.reserve(ne - kept.size());
  for (uint64_t j = 0; j < ne; ++j) {
    if (!claimed[j]) added.push_back(next_tris[j]);
  }

  DeltaHeader header{};
  header.version = kDeltaFormatVersionFrontCoded;
  header.base_nodes = bn;
  header.base_triples = be;
  header.base_terms = tb;
  header.base_fingerprint = FingerprintWithBinding(base, base_terms);
  header.next_nodes = nn;
  header.next_triples = ne;
  header.next_terms = tn;
  header.num_new_terms = new_terms.size();
  const SectionSource sections[] = {
      {DeltaSectionId::kTermSources, {Bytes(term_sources)}},
      {DeltaSectionId::kNewTermOffsets, {Bytes(layout.suffix_offsets)}},
      {DeltaSectionId::kNewTermBlob, std::move(layout.suffixes)},
      {DeltaSectionId::kNodeKinds, {Bytes(kinds)}},
      {DeltaSectionId::kNodeLex, {Bytes(lex)}},
      {DeltaSectionId::kNodeRemap, {Bytes(alignment.next_to_base)}},
      {DeltaSectionId::kRemovedRuns, {Bytes(removed_runs)}},
      {DeltaSectionId::kKeptRuns, {Bytes(kept_runs)}},
      {DeltaSectionId::kAddedTriples, {Bytes(added)}},
      {DeltaSectionId::kNewTermPrefixLens, {Bytes(layout.prefix_lens)}},
  };
  RDFALIGN_RETURN_IF_ERROR(
      WriteContainer(kDeltaFormat, header, sections, out, name));
  if (stats != nullptr) {
    stats->kept_triples = kept.size();
    stats->removed_triples = removed_count;
    stats->added_triples = added.size();
    stats->new_terms = new_terms.size();
    stats->mapped_nodes = alignment.MappedCount();
    stats->kept_runs = kept_runs.size();
    stats->file_bytes = header.file_size;
  }
  return Status::OK();
}

Status WriteDelta(const TripleGraph& base, const TripleGraph& next,
                  const VersionNodeMap& alignment, const std::string& path,
                  DeltaWriteStats* stats) {
  // Durable atomic replace (store/atomic_writer.h): a crash mid-save
  // leaves the previous delta intact, never a torn file.
  AtomicFileWriter writer(path, "delta");
  RDFALIGN_RETURN_IF_ERROR(writer.Open());
  Status st =
      WriteDeltaToStream(base, next, alignment, writer.stream(), path, stats);
  if (!st.ok()) {
    Status io = writer.status();
    return io.ok() ? st : io;
  }
  return writer.Commit();
}

namespace {

/// The delta's own layout rules on a validated container: count bounds,
/// whole elements, and the expected size of every section. Shared by
/// ApplyDelta and ReadDeltaInfo.
Status ValidateLayout(const Container& c, const std::string& name) {
  const DeltaHeader header = c.HeaderAs<DeltaHeader>();
  // Bound the counts before computing expected sizes (overflow safety).
  if (header.base_nodes >= kInvalidNode ||
      header.next_nodes >= kInvalidNode ||
      header.base_terms > kMaxDeltaTerms ||
      header.next_terms > kMaxDeltaTerms ||
      header.num_new_terms > header.next_terms ||
      header.base_triples > (uint64_t{1} << 40) ||
      header.next_triples > (uint64_t{1} << 40)) {
    return Status::Corruption("implausible delta counts: " + name);
  }
  const uint64_t nn = header.next_nodes;
  const uint64_t tn = header.next_terms;
  const uint64_t nw = header.num_new_terms;
  // Fixed expected sizes; the run and triple sections are data-dependent
  // but must hold whole elements.
  const uint64_t expected[kNumDeltaSectionsV2] = {
      tn * sizeof(uint32_t),        // term_sources
      (nw + 1) * sizeof(uint64_t),  // new_term_offsets
      c.table[2].size,              // new_term_blob: data-dependent
      nn * sizeof(uint8_t),         // node_kinds
      nn * sizeof(uint32_t),        // node_lex
      nn * sizeof(NodeId),          // node_remap
      c.table[6].size,              // removed_runs
      c.table[7].size,              // kept_runs
      c.table[8].size,              // added_triples
      nw * sizeof(uint32_t),        // new_term_prefix_lens (v2)
  };
  if (c.table[6].size % sizeof(RunEntry) != 0 ||
      c.table[7].size % sizeof(RunEntry) != 0 ||
      c.table[8].size % sizeof(Triple) != 0) {
    return Status::Corruption("delta section holds partial elements: " +
                              name);
  }
  for (size_t s = 0; s < c.table.size(); ++s) {
    if (c.table[s].size != expected[s]) {
      return Status::Corruption(c.SectionLabel(s) +
                                " has unexpected size: " + name);
    }
  }
  return Status::OK();
}

/// The shared body of the file and memory appliers. `c` holds the whole
/// image.
Result<TripleGraph> ApplyFromContainer(const TripleGraph& base,
                                       const Container& c,
                                       std::shared_ptr<Dictionary> dict,
                                       const DeltaApplyOptions& options,
                                       DeltaApplyStats* stats,
                                       const std::string& name) {
  static_assert(std::endian::native == std::endian::little,
                "deltas are read on little-endian hosts only");
  const auto corrupt = [&name](std::string_view what) {
    return Status::Corruption(std::string(what) + ": " + name);
  };
  RDFALIGN_RETURN_IF_ERROR(ValidateLayout(c, name));
  const DeltaHeader header = c.HeaderAs<DeltaHeader>();
  const bool fc = header.version == kDeltaFormatVersionFrontCoded;
  if (options.verify_checksums) {
    RDFALIGN_RETURN_IF_ERROR(
        VerifySectionChecksums(c, ResolveThreads(options.threads), name));
  }

  // Base binding: the delta applies to exactly one graph. Count or
  // fingerprint disagreement is a caller error (wrong base), not file
  // corruption.
  const TermBinding base_terms = BindTerms(base);
  if (header.base_nodes != base.NumNodes() ||
      header.base_triples != base.NumEdges() ||
      header.base_terms != base_terms.term_ids.size() ||
      header.base_fingerprint !=
          FingerprintWithBinding(base, base_terms)) {
    return Status::InvalidArgument(
        "delta does not apply to this base graph: " + name);
  }

  const uint64_t bn = header.base_nodes;
  const uint64_t be = header.base_triples;
  const uint64_t nn = header.next_nodes;
  const uint64_t ne = header.next_triples;
  const uint64_t tb = header.base_terms;
  const uint64_t tn = header.next_terms;
  const uint64_t nw = header.num_new_terms;

  const auto term_sources = c.Section<uint32_t>(0);
  const auto new_term_offsets = c.Section<uint64_t>(1);
  const auto blob = c.Section<char>(2);
  const auto kinds = c.Section<uint8_t>(3);
  const auto lex = c.Section<uint32_t>(4);
  const auto remap = c.Section<NodeId>(5);
  const auto removed_runs = c.Section<RunEntry>(6);
  const auto kept_runs = c.Section<RunEntry>(7);
  const auto added = c.Section<Triple>(8);
  const auto new_prefix_lens =
      fc ? c.Section<uint32_t>(9) : std::span<const uint32_t>{};

  // Structural validation: every array reference checked before use, so a
  // crafted delta (checksums recomputed) is a Corruption status, never UB.
  {
    uint64_t new_seen = 0;
    for (uint64_t j = 0; j < tn; ++j) {
      const uint32_t src = term_sources[j];
      if (src & kNewTermFlag) {
        if ((src & ~kNewTermFlag) != new_seen) {
          return corrupt("delta new-term references not dense and ordered");
        }
        ++new_seen;
      } else if (src >= tb) {
        return corrupt("delta term source references base term out of range");
      }
    }
    if (new_seen != nw) {
      return corrupt("delta new-term count inconsistent with term sources");
    }
  }
  if (fc) {
    if (const char* defect = CheckFrontCodedGeometry(
            new_prefix_lens, new_term_offsets, blob.size(), nullptr)) {
      return corrupt(defect);
    }
  } else if (const char* defect =
                 CheckRawTermGeometry(new_term_offsets, blob.size())) {
    return corrupt(defect);
  }
  for (uint64_t i = 0; i < nn; ++i) {
    if (kinds[i] > static_cast<uint8_t>(TermKind::kBlank)) {
      return corrupt("delta node kind out of range");
    }
    if (lex[i] >= tn) {
      return corrupt("delta node label references term out of range");
    }
  }
  // Invert the node remap; it must be injective into the base node set.
  std::vector<NodeId> base_to_next(bn, kInvalidNode);
  for (uint64_t i = 0; i < nn; ++i) {
    const NodeId b = remap[i];
    if (b == kInvalidNode) continue;
    if (b >= bn) {
      return corrupt("delta node remap references base node out of range");
    }
    if (base_to_next[b] != kInvalidNode) {
      return corrupt("delta node remap is not injective");
    }
    base_to_next[b] = static_cast<NodeId>(i);
  }
  // Removed runs: ascending, non-overlapping, in bounds. Marked in a
  // per-base-triple role map so kept runs cannot reuse them.
  std::vector<uint8_t> role(be, 0);  // 0 unused, 1 removed, 2 kept
  uint64_t removed_total = 0;
  {
    uint64_t prev_end = 0;
    bool first = true;
    for (const RunEntry& r : removed_runs) {
      if (r.count == 0) return corrupt("delta removed run is empty");
      if (!first && r.start < prev_end) {
        return corrupt("delta removed runs not ascending");
      }
      if (r.start > be || r.count > be - r.start) {
        return corrupt("delta removed run out of bounds");
      }
      for (uint64_t k = r.start; k < r.start + r.count; ++k) role[k] = 1;
      prev_end = r.start + r.count;
      removed_total += r.count;
      first = false;
    }
  }
  uint64_t kept_total = 0;
  for (const RunEntry& r : kept_runs) {
    if (r.count == 0) return corrupt("delta kept run is empty");
    if (r.start > be || r.count > be - r.start) {
      return corrupt("delta kept run out of bounds");
    }
    for (uint64_t k = r.start; k < r.start + r.count; ++k) {
      if (role[k] != 0) {
        return corrupt("delta runs reference a base triple twice");
      }
      role[k] = 2;
    }
    kept_total += r.count;
  }
  if (kept_total + removed_total != be) {
    return corrupt("delta runs do not partition the base triple list");
  }
  if (kept_total + added.size() != ne) {
    return corrupt("delta triple counts inconsistent");
  }
  for (const Triple& t : added) {
    if (t.s >= nn || t.p >= nn || t.o >= nn) {
      return corrupt("delta added triple references node out of range");
    }
  }

  // Splice: expand the kept runs (mapped into next ids) and linearly merge
  // with the added triples. Both streams are pre-sorted in next space; the
  // global strictly-ascending check proves it and is exactly the
  // sorted+deduplicated invariant FromIndexedParts trusts.
  const std::span<const Triple> base_tris = base.triples();
  std::vector<Triple> triples;
  triples.reserve(ne);
  size_t run_index = 0;
  uint64_t run_pos = 0;
  bool have_kept = false;
  Triple kept_cur{};
  const auto advance_kept = [&]() -> Status {
    while (run_index < kept_runs.size()) {
      const RunEntry& r = kept_runs[run_index];
      if (run_pos == r.count) {
        ++run_index;
        run_pos = 0;
        continue;
      }
      const Triple& bt = base_tris[r.start + run_pos];
      ++run_pos;
      const NodeId s = base_to_next[bt.s];
      const NodeId p = base_to_next[bt.p];
      const NodeId o = base_to_next[bt.o];
      if (s == kInvalidNode || p == kInvalidNode || o == kInvalidNode) {
        return Status::Corruption(
            "delta kept triple references a base node without a "
            "next-version image: " +
            name);
      }
      kept_cur = Triple{s, p, o};
      have_kept = true;
      return Status::OK();
    }
    have_kept = false;
    return Status::OK();
  };
  RDFALIGN_RETURN_IF_ERROR(advance_kept());
  size_t add_index = 0;
  while (have_kept || add_index < added.size()) {
    const bool take_kept =
        have_kept &&
        (add_index >= added.size() || kept_cur < added[add_index]);
    const Triple chosen = take_kept ? kept_cur : added[add_index];
    if (!triples.empty() && !(triples.back() < chosen)) {
      return corrupt("delta spliced triples not sorted and deduplicated");
    }
    triples.push_back(chosen);
    if (take_kept) {
      RDFALIGN_RETURN_IF_ERROR(advance_kept());
    } else {
      ++add_index;
    }
  }

  // Dictionary: resolve each next-dense (canonical-order) term against
  // the base dictionary or the delta blob, interning by copy — the delta
  // buffer is transient — into the target dictionary.
  if (dict == nullptr) dict = std::make_shared<Dictionary>();
  const size_t dict_before = dict->size();
  std::vector<LexId> lex_map(tn);
  {
    uint64_t new_seen = 0;
    // Front-coded decode state: the previous decoded new term, kept whole
    // so the next term's prefix head can be copied from it (swap, never
    // resize in place — the head is read before it is overwritten).
    std::string prev_new;
    std::string cur_new;
    for (uint64_t j = 0; j < tn; ++j) {
      const uint32_t src = term_sources[j];
      std::string_view term;
      if (src & kNewTermFlag) {
        const uint64_t suffix_len =
            new_term_offsets[new_seen + 1] - new_term_offsets[new_seen];
        if (fc) {
          const uint32_t plen = new_prefix_lens[new_seen];
          cur_new.assign(prev_new.data(), plen);
          cur_new.append(blob.data() + new_term_offsets[new_seen],
                         suffix_len);
          if (new_seen > 0 && !(prev_new < cur_new)) {
            return corrupt("delta front-coded terms not strictly ascending");
          }
          std::swap(prev_new, cur_new);
          term = prev_new;
        } else {
          term = std::string_view(blob.data() + new_term_offsets[new_seen],
                                  suffix_len);
        }
        ++new_seen;
      } else {
        term = base.dict().Get(base_terms.term_ids[src]);
      }
      lex_map[j] = dict->Intern(term);
    }
  }
  std::vector<NodeLabel> labels(nn);
  for (uint64_t i = 0; i < nn; ++i) {
    labels[i] = NodeLabel{static_cast<TermKind>(kinds[i]), lex_map[lex[i]]};
  }

  // Fresh CSR arrays from the merged sorted triple list — the same
  // counting passes as TripleGraph::BuildIndexes, so the result is
  // bit-identical to a from-scratch build (and to a full snapshot load).
  std::vector<uint64_t> out_offsets;
  std::vector<PredicateObject> out_pairs;
  std::vector<uint64_t> in_offsets;
  std::vector<NodeId> in_subjects;
  TripleGraph::BuildCsrArrays(triples, nn, &out_offsets, &out_pairs,
                              &in_offsets, &in_subjects);

  if (stats != nullptr) {
    stats->file_bytes = c.file_size;
    stats->kept_triples = kept_total;
    stats->removed_triples = removed_total;
    stats->added_triples = added.size();
    stats->new_terms = nw;
    stats->terms_interned = dict->size() - dict_before;
  }

  return TripleGraph::FromIndexedParts(
      std::move(dict), std::move(labels),
      SharedArray<Triple>(std::move(triples)),
      SharedArray<uint64_t>(std::move(out_offsets)),
      SharedArray<PredicateObject>(std::move(out_pairs)),
      SharedArray<uint64_t>(std::move(in_offsets)),
      SharedArray<NodeId>(std::move(in_subjects)));
}

}  // namespace

Result<TripleGraph> ApplyDelta(const TripleGraph& base,
                               const std::string& path,
                               std::shared_ptr<Dictionary> dict,
                               const DeltaApplyOptions& options,
                               DeltaApplyStats* stats) {
  RDFALIGN_ASSIGN_OR_RETURN(
      const Container c,
      ReadContainer(kDeltaFormat, path, ContainerRead::kBuffered));
  return ApplyFromContainer(base, c, std::move(dict), options, stats, path);
}

Result<TripleGraph> ApplyDeltaFromMemory(const TripleGraph& base,
                                         const unsigned char* data,
                                         uint64_t size,
                                         std::shared_ptr<Dictionary> dict,
                                         const DeltaApplyOptions& options,
                                         DeltaApplyStats* stats,
                                         const std::string& name) {
  RDFALIGN_ASSIGN_OR_RETURN(
      const Container c,
      ParseContainer(kDeltaFormat, nullptr, data, size, name));
  return ApplyFromContainer(base, c, std::move(dict), options, stats, name);
}

Result<DeltaInfo> ReadDeltaInfo(const std::string& path) {
  RDFALIGN_ASSIGN_OR_RETURN(
      const Container c,
      ReadContainer(kDeltaFormat, path, ContainerRead::kHeader));
  RDFALIGN_RETURN_IF_ERROR(ValidateLayout(c, path));
  const DeltaHeader header = c.HeaderAs<DeltaHeader>();
  DeltaInfo info;
  info.version = header.version;
  info.base_nodes = header.base_nodes;
  info.base_triples = header.base_triples;
  info.base_terms = header.base_terms;
  info.base_fingerprint = header.base_fingerprint;
  info.next_nodes = header.next_nodes;
  info.next_triples = header.next_triples;
  info.next_terms = header.next_terms;
  info.num_new_terms = header.num_new_terms;
  info.file_size = header.file_size;
  for (const SectionEntry& sec : c.table) {
    info.sections.push_back(DeltaSectionInfo{
        static_cast<DeltaSectionId>(sec.id), sec.offset, sec.size,
        sec.checksum});
  }
  return info;
}

bool LooksLikeDelta(const std::string& path) {
  return HasMagic(path, kDeltaMagic);
}

}  // namespace rdfalign::store
