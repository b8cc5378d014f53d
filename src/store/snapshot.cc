#include "store/snapshot.h"

#include <bit>
#include <cstddef>
#include <cstring>
#include <utility>

#include "store/atomic_writer.h"
#include "store/container.h"
#include "store/front_coding.h"
#include "util/shared_array.h"

namespace rdfalign::store {

namespace {

const ContainerFormat kSnapshotFormat = {
    "snapshot",
    kMagic,
    kFormatVersion,
    kFormatVersionFrontCoded,
    sizeof(SnapshotHeader),
    [](const unsigned char* header) -> std::optional<uint64_t> {
      SnapshotHeader h;
      std::memcpy(&h, header, sizeof(h));
      return h.version == kFormatVersion ? kNumSections : kNumSectionsV2;
    },
    SequentialSectionId,
    [](uint32_t id) { return SectionName(static_cast<SectionId>(id)); },
};

}  // namespace

std::string_view SectionName(SectionId id) {
  switch (id) {
    case SectionId::kTermOffsets:
      return "term_offsets";
    case SectionId::kTermBlob:
      return "term_blob";
    case SectionId::kNodeKinds:
      return "node_kinds";
    case SectionId::kNodeLex:
      return "node_lex";
    case SectionId::kTriples:
      return "triples";
    case SectionId::kOutOffsets:
      return "out_offsets";
    case SectionId::kOutPairs:
      return "out_pairs";
    case SectionId::kInOffsets:
      return "in_offsets";
    case SectionId::kInSubjects:
      return "in_subjects";
    case SectionId::kTermPrefixLens:
      return "term_prefix_lens";
  }
  return "unknown";
}

Status WriteSnapshotToStream(const TripleGraph& g, std::ostream& out,
                             const std::string& path) {
  static_assert(std::endian::native == std::endian::little,
                "snapshots are written on little-endian hosts only");
  const size_t n = g.NumNodes();
  const Dictionary& dict = g.dict();

  // Only the terms this graph references are written, in the sorted
  // dense numbering. Loading a snapshot into a fresh dictionary interns
  // the terms in file order, so re-saving a loaded snapshot reproduces it
  // byte for byte.
  const TermBinding terms = BindTerms(g);
  const size_t num_terms = terms.term_ids.size();

  // The blob holds each term's suffix tail past its shared prefix,
  // streamed term by term.
  FrontCodedLayout layout = FrontCodeTerms(
      num_terms, [&](size_t i) { return dict.Get(terms.term_ids[i]); });
  std::vector<uint8_t> kinds(n);
  std::vector<uint32_t> lex(n);
  for (size_t i = 0; i < n; ++i) {
    kinds[i] = static_cast<uint8_t>(g.labels()[i].kind);
    lex[i] = terms.dense_of[g.labels()[i].lex];
  }

  SnapshotHeader header{};
  header.version = kFormatVersionFrontCoded;
  header.num_nodes = n;
  header.num_triples = g.NumEdges();
  header.num_terms = num_terms;
  const SectionSource sections[] = {
      {SectionId::kTermOffsets, {Bytes(layout.suffix_offsets)}},
      {SectionId::kTermBlob, std::move(layout.suffixes)},
      {SectionId::kNodeKinds, {Bytes(kinds)}},
      {SectionId::kNodeLex, {Bytes(lex)}},
      {SectionId::kTriples, {Bytes(g.triples())}},
      {SectionId::kOutOffsets, {Bytes(g.OutOffsets())}},
      {SectionId::kOutPairs, {Bytes(g.OutPairs())}},
      {SectionId::kInOffsets, {Bytes(g.InOffsets())}},
      {SectionId::kInSubjects, {Bytes(g.InSubjects())}},
      {SectionId::kTermPrefixLens, {Bytes(layout.prefix_lens)}},
  };
  return WriteContainer(kSnapshotFormat, header, sections, out, path);
}

Status WriteSnapshot(const TripleGraph& g, const std::string& path) {
  // Durable atomic replace: stream into path.tmp.<pid>, fsync, rename
  // (see store/atomic_writer.h) — a crash mid-save leaves the previous
  // snapshot intact and never a torn file.
  AtomicFileWriter writer(path, "snapshot");
  RDFALIGN_RETURN_IF_ERROR(writer.Open());
  Status st = WriteSnapshotToStream(g, writer.stream(), path);
  if (!st.ok()) {
    // Prefer the writer's errno-carrying status over the stream-level
    // message when the failure was an I/O error.
    Status io = writer.status();
    return io.ok() ? st : io;
  }
  return writer.Commit();
}

namespace {

/// The snapshot's own layout rules on a validated container: count bounds
/// and the expected size of every section. Shared by the loaders and
/// ReadSnapshotInfo.
Status ValidateLayout(const Container& c, const std::string& path) {
  const SnapshotHeader header = c.HeaderAs<SnapshotHeader>();
  // Bound the counts before computing expected sizes (overflow safety).
  if (header.num_nodes >= kInvalidNode || header.num_terms >= kInvalidLex ||
      header.num_triples > (uint64_t{1} << 40)) {
    return Status::Corruption("implausible snapshot counts: " + path);
  }
  const uint64_t n = header.num_nodes;
  const uint64_t e = header.num_triples;
  const uint64_t t = header.num_terms;
  // Fixed expected sizes (blob and in_subjects are data-dependent; their
  // sizes are cross-checked against the offset arrays during load).
  const uint64_t expected[kNumSectionsV2] = {
      (t + 1) * sizeof(uint64_t),   // term_offsets
      c.table[1].size,              // term_blob: data-dependent
      n * sizeof(uint8_t),          // node_kinds
      n * sizeof(uint32_t),         // node_lex
      e * sizeof(Triple),           // triples
      (n + 1) * sizeof(uint64_t),   // out_offsets
      e * sizeof(PredicateObject),  // out_pairs
      (n + 1) * sizeof(uint64_t),   // in_offsets
      c.table[8].size,              // in_subjects: data-dependent
      t * sizeof(uint32_t),         // term_prefix_lens (v2 only)
  };
  for (size_t s = 0; s < c.table.size(); ++s) {
    if (c.table[s].size != expected[s]) {
      return Status::Corruption(c.SectionLabel(s) +
                                " has unexpected size: " + path);
    }
  }
  return Status::OK();
}

/// Proves the triple list and both CSR indexes exactly what
/// BuildCsrArrays builds for `n` nodes: everything FromIndexedParts
/// trusts. Returns nullptr on success or a static description of the
/// defect.
const char* CheckIndexes(uint64_t n, std::span<const Triple> triples,
                         std::span<const uint64_t> out_offsets,
                         std::span<const PredicateObject> out_pairs,
                         std::span<const uint64_t> in_offsets,
                         std::span<const NodeId> in_subjects) {
  // Each offsets array must be proven monotone END TO END before any entry
  // is used as an index: monotonicity plus the endpoint equality bounds
  // every entry by the payload length. Interleaving the monotone check with
  // the per-node consistency loop would let out_offsets = [0, HUGE, ...]
  // drive reads far past the section before the i=1 check fires.
  if (out_offsets[0] != 0 || out_offsets[n] != triples.size()) {
    return "out-index offsets do not span the triple list";
  }
  for (uint64_t i = 0; i < n; ++i) {
    if (out_offsets[i] > out_offsets[i + 1]) {
      return "out-index offsets not monotonic";
    }
  }
  if (in_offsets[0] != 0 ||
      in_offsets[n] != static_cast<uint64_t>(in_subjects.size())) {
    return "in-index offsets do not span the subject list";
  }
  for (uint64_t i = 0; i < n; ++i) {
    if (in_offsets[i] > in_offsets[i + 1]) {
      return "in-index offsets not monotonic";
    }
  }
  // One pass over the triples, in the order the out-index slices them:
  // each triple is in range, strictly above its predecessor, in its
  // subject's out-slice, and found in the in-slices of its predicate and
  // object. Triples ascend by subject, so every in-slice is met in order:
  // a subject must be either the entry its node matched last (one subject
  // reaching a node twice) or the next one, and at the end every node must
  // have matched its whole slice. The in-index is then exactly the one
  // BuildCsrArrays builds: per node, the ascending distinct subjects. A
  // count fits in 32 bits: the subjects a node matches ascend below n.
  std::vector<uint32_t> in_matched(n, 0);
  const auto in_slice_meets = [&](NodeId node, NodeId subject) {
    const uint64_t k = in_offsets[node] + in_matched[node];
    if (in_matched[node] > 0 && in_subjects[k - 1] == subject) return true;
    if (k == in_offsets[node + 1] || in_subjects[k] != subject) return false;
    ++in_matched[node];
    return true;
  };
  for (uint64_t i = 0; i < n; ++i) {
    for (uint64_t k = out_offsets[i]; k < out_offsets[i + 1]; ++k) {
      const Triple& tr = triples[k];
      if (tr.s >= n || tr.p >= n || tr.o >= n) {
        return "triple references node out of range";
      }
      if (k > 0 && !(triples[k - 1] < tr)) {
        return "triples not sorted and deduplicated";
      }
      if (tr.s != i || out_pairs[k].p != tr.p || out_pairs[k].o != tr.o) {
        return "out-index inconsistent with triple list";
      }
      if (!in_slice_meets(tr.p, tr.s) || !in_slice_meets(tr.o, tr.s)) {
        return "in-index inconsistent with triple list";
      }
    }
  }
  for (uint64_t i = 0; i < n; ++i) {
    if (in_offsets[i] + in_matched[i] != in_offsets[i + 1]) {
      return "in-index inconsistent with triple list";
    }
  }
  return nullptr;
}

/// The shared body of the file and memory loaders: checksums, structural
/// validation, dictionary interning, zero-copy array adoption. `c` must
/// hold the whole image.
Result<TripleGraph> LoadFromContainer(const Container& c,
                                      std::shared_ptr<Dictionary> dict,
                                      SnapshotLoadStats* stats,
                                      const std::string& path) {
  static_assert(std::endian::native == std::endian::little,
                "snapshots are read on little-endian hosts only");
  RDFALIGN_RETURN_IF_ERROR(ValidateLayout(c, path));
  const SnapshotHeader header = c.HeaderAs<SnapshotHeader>();
  const uint64_t n = header.num_nodes;
  const uint64_t t = header.num_terms;
  const bool fc = header.version == kFormatVersionFrontCoded;
  RDFALIGN_RETURN_IF_ERROR(VerifySectionChecksums(c, 1, path));

  const auto term_offsets = c.Section<uint64_t>(0);
  const auto blob = c.Section<char>(1);
  const auto kinds = c.Section<uint8_t>(2);
  const auto lex = c.Section<uint32_t>(3);
  const auto triples = c.Section<Triple>(4);
  const auto out_offsets = c.Section<uint64_t>(5);
  const auto out_pairs = c.Section<PredicateObject>(6);
  const auto in_offsets = c.Section<uint64_t>(7);
  const auto in_subjects = c.Section<NodeId>(8);
  const auto prefix_lens =
      fc ? c.Section<uint32_t>(9) : std::span<const uint32_t>{};

  // Structural validation: everything FromIndexedParts trusts. Runs on
  // every load — these invariants are what make a malformed file safe to
  // reject instead of undefined behavior — and finishes before the
  // dictionary is touched, so a failed load interns nothing.
  const auto corrupt = [&path](std::string_view what) {
    return Status::Corruption(std::string(what) + ": " + path);
  };
  if (c.table[8].size % sizeof(NodeId) != 0) {
    return corrupt("in-index subject section misaligned");
  }
  TermTable terms;
  if (const char* defect =
          DecodeTermTable(term_offsets, prefix_lens, fc, blob, &terms)) {
    return corrupt(defect);
  }
  if (const char* defect = CheckNodeColumns(kinds, lex, t)) {
    return corrupt(defect);
  }
  if (const char* defect = CheckIndexes(n, triples, out_offsets, out_pairs,
                                       in_offsets, in_subjects)) {
    return corrupt(defect);
  }

  // Dictionary: intern each term as a view into the pinned payload or the
  // pinned arena. With a fresh dictionary this assigns ids 0..t-1 in file
  // order (identity map); with a shared dictionary the ids are remapped
  // transparently.
  if (dict == nullptr) dict = std::make_shared<Dictionary>();
  dict->PinArena(c.pin);
  if (terms.arena != nullptr) dict->PinArena(terms.arena);
  const size_t dict_before = dict->size();
  dict->Reserve(dict_before + t);
  std::vector<LexId> remap(t);
  bool identity = true;
  TermReader reader(terms);
  for (uint64_t i = 0; i < t; ++i) {
    remap[i] = dict->InternPinned(reader.Next());
    identity = identity && remap[i] == i;
  }

  std::vector<NodeLabel> labels(n);
  for (uint64_t i = 0; i < n; ++i) {
    labels[i] = NodeLabel{static_cast<TermKind>(kinds[i]), remap[lex[i]]};
  }

  if (stats != nullptr) {
    stats->file_bytes = c.file_size;
    stats->terms_interned = dict->size() - dict_before;
    stats->identity_term_map = identity;
  }

  return TripleGraph::FromIndexedParts(
      std::move(dict), std::move(labels),
      SharedArray<Triple>(c.pin, triples.data(), triples.size()),
      SharedArray<uint64_t>(c.pin, out_offsets.data(), out_offsets.size()),
      SharedArray<PredicateObject>(c.pin, out_pairs.data(),
                                   out_pairs.size()),
      SharedArray<uint64_t>(c.pin, in_offsets.data(), in_offsets.size()),
      SharedArray<NodeId>(c.pin, in_subjects.data(), in_subjects.size()));
}

}  // namespace

Result<TripleGraph> LoadSnapshot(const std::string& path,
                                 std::shared_ptr<Dictionary> dict,
                                 const SnapshotLoadOptions& options,
                                 SnapshotLoadStats* stats) {
  RDFALIGN_ASSIGN_OR_RETURN(
      const Container c,
      ReadContainer(kSnapshotFormat, path,
                    options.use_mmap ? ContainerRead::kMapped
                                     : ContainerRead::kBuffered));
  return LoadFromContainer(c, std::move(dict), stats, path);
}

Result<TripleGraph> LoadSnapshotFromMemory(std::shared_ptr<const void> pin,
                                           const unsigned char* data,
                                           uint64_t size,
                                           std::shared_ptr<Dictionary> dict,
                                           SnapshotLoadStats* stats,
                                           const std::string& name) {
  RDFALIGN_ASSIGN_OR_RETURN(
      const Container c,
      ParseContainer(kSnapshotFormat, std::move(pin), data, size, name));
  return LoadFromContainer(c, std::move(dict), stats, name);
}

Result<SnapshotInfo> ReadSnapshotInfo(const std::string& path) {
  RDFALIGN_ASSIGN_OR_RETURN(
      const Container c,
      ReadContainer(kSnapshotFormat, path, ContainerRead::kHeader));
  RDFALIGN_RETURN_IF_ERROR(ValidateLayout(c, path));
  const SnapshotHeader header = c.HeaderAs<SnapshotHeader>();
  SnapshotInfo info;
  info.version = header.version;
  info.num_nodes = header.num_nodes;
  info.num_triples = header.num_triples;
  info.num_terms = header.num_terms;
  info.file_size = header.file_size;
  for (const SectionEntry& sec : c.table) {
    info.sections.push_back(SnapshotSectionInfo{
        static_cast<SectionId>(sec.id), sec.offset, sec.size, sec.checksum});
  }
  return info;
}

bool LooksLikeSnapshot(const std::string& path) {
  return HasMagic(path, kMagic);
}

}  // namespace rdfalign::store
