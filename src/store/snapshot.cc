#include "store/snapshot.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <utility>

#include "store/atomic_writer.h"
#include "store/front_coding.h"
#include "store/io_util.h"
#include "store/mapped_file.h"
#include "util/shared_array.h"

namespace rdfalign::store {

namespace {

// Section order within a file (also the id order). Version-1 files carry
// the first kNumSections entries; version-2 files all kNumSectionsV2.
constexpr SectionId kSectionOrder[kNumSectionsV2] = {
    SectionId::kTermOffsets, SectionId::kTermBlob,  SectionId::kNodeKinds,
    SectionId::kNodeLex,     SectionId::kTriples,   SectionId::kOutOffsets,
    SectionId::kOutPairs,    SectionId::kInOffsets, SectionId::kInSubjects,
    SectionId::kTermPrefixLens,
};

/// Section count of a snapshot format version.
size_t SectionCount(uint32_t version) {
  return version == kFormatVersion ? kNumSections : kNumSectionsV2;
}

/// Byte offset of the first payload of a snapshot format version.
size_t PayloadStart(uint32_t version) {
  return sizeof(SnapshotHeader) +
         SectionCount(version) * sizeof(SectionEntry);
}

Status WriteExact(std::ostream& out, const void* data, size_t n,
                  const std::string& path) {
  return store::WriteExact(out, data, n, "snapshot", path);  // io_util.h
}

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
                             const std::string& path,
                             const StoreWriteOptions& options) {
  static_assert(std::endian::native == std::endian::little,
                "snapshots are written on little-endian hosts only");
  const size_t n = g.NumNodes();
  const size_t e = g.NumEdges();
  const Dictionary& dict = g.dict();
  const bool fc = options.compress_dict;
  const uint32_t version = fc ? kFormatVersionFrontCoded : kFormatVersion;
  const size_t num_sections = SectionCount(version);
  const uint64_t payload_start = PayloadStart(version);

  // Terms referenced by this graph, renumbered densely. A shared
  // dictionary may hold terms of other graphs; those are not written.
  // Version 1 keeps ascending original-id order; version 2 sorts the terms
  // lexicographically (the front-coding precondition). Either way, loading
  // a snapshot into a fresh dictionary interns the terms in file order, so
  // re-saving a loaded snapshot reproduces it byte for byte.
  std::vector<uint8_t> used(dict.size(), 0);
  for (const NodeLabel& l : g.labels()) {
    used[l.lex] = 1;
  }
  std::vector<LexId> term_ids;
  for (LexId id = 0; id < used.size(); ++id) {
    if (used[id]) term_ids.push_back(id);
  }
  if (fc) {
    // Distinct ids hold distinct strings, so the order is total.
    std::sort(term_ids.begin(), term_ids.end(), [&dict](LexId a, LexId b) {
      return dict.Get(a) < dict.Get(b);
    });
  }
  const size_t num_terms = term_ids.size();
  std::vector<LexId> remap(dict.size(), kInvalidLex);
  for (size_t j = 0; j < num_terms; ++j) {
    remap[term_ids[j]] = static_cast<LexId>(j);
  }

  // Dense columns. In version 2 the offset table indexes the suffix blob
  // and a prefix-length column is appended as the tenth section.
  FrontCodedLayout layout;
  std::vector<uint64_t> raw_offsets;
  if (fc) {
    layout = FrontCodeTerms(
        num_terms, [&](size_t i) { return dict.Get(term_ids[i]); });
  } else {
    raw_offsets.assign(num_terms + 1, 0);
    for (size_t i = 0; i < num_terms; ++i) {
      raw_offsets[i + 1] = raw_offsets[i] + dict.Get(term_ids[i]).size();
    }
  }
  const std::vector<uint64_t>& term_offsets =
      fc ? layout.suffix_offsets : raw_offsets;
  std::vector<uint8_t> kinds(n);
  std::vector<uint32_t> lex(n);
  for (size_t i = 0; i < n; ++i) {
    kinds[i] = static_cast<uint8_t>(g.labels()[i].kind);
    lex[i] = remap[g.labels()[i].lex];
  }

  // The i-th term's bytes as stored in the blob: the whole term (v1) or
  // its suffix tail past the shared prefix (v2).
  const auto stored_bytes = [&](size_t i) {
    std::string_view term = dict.Get(term_ids[i]);
    return fc ? term.substr(layout.prefix_lens[i]) : term;
  };

  // Section payloads: {data, size}. The term blob (section index 1) is the
  // one section streamed term by term instead of from a contiguous buffer;
  // it is selected by INDEX below — a null data pointer is NOT a sentinel,
  // since any empty array section legitimately has data() == nullptr.
  constexpr size_t kBlobIndex = 1;
  struct Payload {
    const void* data;
    uint64_t size;
  };
  const Payload payloads[kNumSectionsV2] = {
      {term_offsets.data(), (num_terms + 1) * sizeof(uint64_t)},
      {nullptr, term_offsets[num_terms]},
      {kinds.data(), n * sizeof(uint8_t)},
      {lex.data(), n * sizeof(uint32_t)},
      {g.triples().data(), e * sizeof(Triple)},
      {g.OutOffsets().data(), (n + 1) * sizeof(uint64_t)},
      {g.OutPairs().data(), e * sizeof(PredicateObject)},
      {g.InOffsets().data(), (n + 1) * sizeof(uint64_t)},
      {g.InSubjects().data(), g.InSubjects().size() * sizeof(NodeId)},
      {layout.prefix_lens.data(), num_terms * sizeof(uint32_t)},
  };

  SectionEntry table[kNumSectionsV2];
  uint64_t cursor = payload_start;
  for (size_t s = 0; s < num_sections; ++s) {
    table[s].id = static_cast<uint32_t>(kSectionOrder[s]);
    table[s].reserved = 0;
    table[s].offset = AlignUp(cursor);
    table[s].size = payloads[s].size;
    if (s == kBlobIndex) {
      Checksummer c;
      for (size_t i = 0; i < num_terms; ++i) {
        std::string_view bytes = stored_bytes(i);
        c.Update(bytes.data(), bytes.size());
      }
      table[s].checksum = c.Finish();
    } else {
      table[s].checksum = Checksum64(payloads[s].data, payloads[s].size);
    }
    cursor = table[s].offset + table[s].size;
  }

  SnapshotHeader header;
  header.magic = kMagic;
  header.version = version;
  header.endian_tag = kEndianTag;
  header.num_nodes = n;
  header.num_triples = e;
  header.num_terms = num_terms;
  header.num_sections = num_sections;
  header.file_size = cursor;
  header.header_checksum = 0;
  {
    Checksummer c;
    c.Update(&header, sizeof(header));
    c.Update(table, num_sections * sizeof(SectionEntry));
    header.header_checksum = c.Finish();
  }

  RDFALIGN_RETURN_IF_ERROR(WriteExact(out, &header, sizeof(header), path));
  RDFALIGN_RETURN_IF_ERROR(
      WriteExact(out, table, num_sections * sizeof(SectionEntry), path));
  uint64_t written = payload_start;
  const char zeros[kSectionAlignment] = {};
  for (size_t s = 0; s < num_sections; ++s) {
    if (table[s].offset > written) {
      RDFALIGN_RETURN_IF_ERROR(
          WriteExact(out, zeros, table[s].offset - written, path));
    }
    if (s == kBlobIndex) {
      for (size_t i = 0; i < num_terms; ++i) {
        std::string_view bytes = stored_bytes(i);
        RDFALIGN_RETURN_IF_ERROR(
            WriteExact(out, bytes.data(), bytes.size(), path));
      }
    } else {
      RDFALIGN_RETURN_IF_ERROR(
          WriteExact(out, payloads[s].data, payloads[s].size, path));
    }
    written = table[s].offset + table[s].size;
  }
  out.flush();
  if (!out) {
    return Status::IOError("error writing snapshot: " + path);
  }
  return Status::OK();
}

Status WriteSnapshot(const TripleGraph& g, const std::string& path,
                     const StoreWriteOptions& options) {
  // Durable atomic replace: stream into path.tmp.<pid>, fsync, rename
  // (see store/atomic_writer.h) — a crash mid-save leaves the previous
  // snapshot intact and never a torn file.
  AtomicFileWriter writer(path, "snapshot");
  RDFALIGN_RETURN_IF_ERROR(writer.Open());
  Status st = WriteSnapshotToStream(g, writer.stream(), path, options);
  if (!st.ok()) {
    // Prefer the writer's errno-carrying status over the stream-level
    // message when the failure was an I/O error.
    Status io = writer.status();
    return io.ok() ? st : io;
  }
  return writer.Commit();
}

namespace {

/// The validated raw view of a snapshot: base pointer, header, and the
/// section table. `pin` keeps the underlying buffer or mapping alive.
/// Version-1 files fill only the first kNumSections table entries.
struct RawSnapshot {
  std::shared_ptr<const void> pin;
  const unsigned char* base = nullptr;
  uint64_t size = 0;
  SnapshotHeader header;
  SectionEntry table[kNumSectionsV2];
};

/// Header and section-table validation shared by the loader and
/// ReadSnapshotInfo. `actual_size` is the real on-disk size; the first
/// PayloadStart(version) bytes must be present at `base`.
Status ValidateHeader(const unsigned char* base, uint64_t available,
                      uint64_t actual_size, SnapshotHeader* header,
                      SectionEntry* table, const std::string& path) {
  if (available < sizeof(SnapshotHeader)) {
    return Status::Corruption("truncated snapshot (no header): " + path);
  }
  std::memcpy(header, base, sizeof(SnapshotHeader));
  if (header->magic != kMagic) {
    return Status::InvalidArgument("not an rdfalign snapshot: " + path);
  }
  if (header->version != kFormatVersion &&
      header->version != kFormatVersionFrontCoded) {
    return Status::NotSupported(
        "unsupported snapshot format version " +
        std::to_string(header->version) + " (this build reads versions " +
        std::to_string(kFormatVersion) + "-" +
        std::to_string(kFormatVersionFrontCoded) + "): " + path);
  }
  if (header->endian_tag != kEndianTag) {
    return Status::NotSupported(
        "snapshot written with a different byte order: " + path);
  }
  const size_t num_sections = SectionCount(header->version);
  const uint64_t payload_start = PayloadStart(header->version);
  if (header->num_sections != num_sections) {
    return Status::Corruption("unexpected section count: " + path);
  }
  if (header->file_size != actual_size) {
    return Status::Corruption(
        "snapshot size mismatch (header says " +
        std::to_string(header->file_size) + " bytes, file has " +
        std::to_string(actual_size) + "): " + path);
  }
  if (available < payload_start) {
    return Status::Corruption("truncated snapshot (no section table): " +
                              path);
  }
  std::memcpy(table, base + sizeof(SnapshotHeader),
              num_sections * sizeof(SectionEntry));
  {
    // The header checksum covers header + table with the field zeroed.
    SnapshotHeader zeroed = *header;
    zeroed.header_checksum = 0;
    Checksummer c;
    c.Update(&zeroed, sizeof(zeroed));
    c.Update(table, num_sections * sizeof(SectionEntry));
    if (c.Finish() != header->header_checksum) {
      return Status::Corruption("snapshot header checksum mismatch: " + path);
    }
  }
  // Bound the counts before computing expected sizes (overflow safety).
  if (header->num_nodes >= kInvalidNode || header->num_terms >= kInvalidLex ||
      header->num_triples > (uint64_t{1} << 40)) {
    return Status::Corruption("implausible snapshot counts: " + path);
  }
  const uint64_t n = header->num_nodes;
  const uint64_t e = header->num_triples;
  const uint64_t t = header->num_terms;
  // Fixed expected sizes (blob and in_subjects are data-dependent; their
  // sizes are cross-checked against the offset arrays during load).
  const uint64_t expected[kNumSectionsV2] = {
      (t + 1) * sizeof(uint64_t),  // term_offsets
      table[1].size,               // term_blob: data-dependent
      n * sizeof(uint8_t),         // node_kinds
      n * sizeof(uint32_t),        // node_lex
      e * sizeof(Triple),          // triples
      (n + 1) * sizeof(uint64_t),  // out_offsets
      e * sizeof(PredicateObject),  // out_pairs
      (n + 1) * sizeof(uint64_t),  // in_offsets
      table[8].size,               // in_subjects: data-dependent
      t * sizeof(uint32_t),        // term_prefix_lens (v2 only)
  };
  uint64_t prev_end = payload_start;
  for (size_t s = 0; s < num_sections; ++s) {
    const SectionEntry& sec = table[s];
    if (sec.id != static_cast<uint32_t>(kSectionOrder[s]) ||
        sec.reserved != 0) {
      return Status::Corruption("malformed section table: " + path);
    }
    if (sec.size != expected[s]) {
      return Status::Corruption("section " +
                                std::string(SectionName(kSectionOrder[s])) +
                                " has unexpected size: " + path);
    }
    if (sec.offset % kSectionAlignment != 0 || sec.offset < prev_end ||
        sec.offset > header->file_size ||
        sec.size > header->file_size - sec.offset) {
      return Status::Corruption("section " +
                                std::string(SectionName(kSectionOrder[s])) +
                                " out of bounds: " + path);
    }
    prev_end = sec.offset + sec.size;
  }
  return Status::OK();
}

/// Opens `path` for buffered reading and validates the snapshot header and
/// section table from the first kPayloadStart bytes, without allocating
/// anything file-sized: a junk or crafted file is rejected from its prefix
/// alone. Only regular files are accepted — a directory "opens" as an
/// ifstream on Linux and tellg() then reports a nonsense size (observed:
/// -1 or LLONG_MAX). On success `in` is open and the actual file size is
/// returned.
Result<uint64_t> OpenAndValidatePrefix(const std::string& path,
                                       std::ifstream& in,
                                       SnapshotHeader* header,
                                       SectionEntry* table) {
  std::error_code ec;
  if (!std::filesystem::is_regular_file(path, ec) || ec) {
    return Status::IOError("not a regular file: " + path);
  }
  in.open(path, std::ios::binary | std::ios::ate);
  if (!in) {
    return Status::IOError("cannot open file: " + path);
  }
  const std::streamoff pos = in.tellg();
  if (!in || pos < 0) {
    return Status::IOError("cannot determine file size: " + path);
  }
  const auto size = static_cast<uint64_t>(pos);
  in.seekg(0);
  // Large enough for either format version's header + section table; the
  // validator reads only the entries its version declares.
  unsigned char head[kPayloadStartV2] = {};
  const uint64_t head_bytes =
      size < kPayloadStartV2 ? size : kPayloadStartV2;
  in.read(reinterpret_cast<char*>(head),
          static_cast<std::streamsize>(head_bytes));
  if (!in && head_bytes > 0) {
    return Status::IOError("error reading file: " + path);
  }
  RDFALIGN_RETURN_IF_ERROR(
      ValidateHeader(head, head_bytes, size, header, table, path));
  return size;
}

/// Produces a RawSnapshot whose header and section table are validated.
/// The buffered path validates the prefix before allocating; the mmap
/// path validates in place after mapping.
Result<RawSnapshot> AcquireBytes(const std::string& path, bool use_mmap) {
  RawSnapshot raw;
  if (use_mmap) {
    RDFALIGN_ASSIGN_OR_RETURN(std::shared_ptr<MappedFile> file,
                              MappedFile::Open(path));
    raw.base = file->data();
    raw.size = file->size();
    raw.pin = std::move(file);
    RDFALIGN_RETURN_IF_ERROR(ValidateHeader(raw.base, raw.size, raw.size,
                                            &raw.header, raw.table, path));
    return raw;
  }
  std::ifstream in;
  RDFALIGN_ASSIGN_OR_RETURN(
      const uint64_t size,
      OpenAndValidatePrefix(path, in, &raw.header, raw.table));
  // The header vouched for the size; a genuinely huge snapshot can still
  // exceed memory, which must come back as a Status, not a bad_alloc.
  std::shared_ptr<std::vector<unsigned char>> buffer;
  try {
    buffer = std::make_shared<std::vector<unsigned char>>(size);
  } catch (const std::bad_alloc&) {
    return Status::IOError("snapshot too large to buffer (" +
                           std::to_string(size) + " bytes): " + path);
  }
  if (size > 0) {
    in.seekg(0);
    in.read(reinterpret_cast<char*>(buffer->data()),
            static_cast<std::streamsize>(size));
    if (!in) {
      return Status::IOError("error reading file: " + path);
    }
  }
  raw.base = buffer->data();
  raw.size = size;
  raw.pin = std::move(buffer);
  return raw;
}

template <typename T>
std::span<const T> SectionSpan(const RawSnapshot& raw, size_t index) {
  // Sections are 8-byte aligned and both backings (page-aligned mapping,
  // operator-new buffer) are at least that aligned, so the reinterpret_cast
  // is sound for the fixed-width little-endian element types used here.
  return {reinterpret_cast<const T*>(raw.base + raw.table[index].offset),
          static_cast<size_t>(raw.table[index].size / sizeof(T))};
}

/// The shared body of the file and memory loaders: checksums, structural
/// validation, dictionary interning, zero-copy array adoption. `raw` must
/// hold a validated header and section table.
Result<TripleGraph> LoadFromRaw(const RawSnapshot& raw,
                                std::shared_ptr<Dictionary> dict,
                                const SnapshotLoadOptions& options,
                                SnapshotLoadStats* stats,
                                const std::string& path) {
  static_assert(std::endian::native == std::endian::little,
                "snapshots are read on little-endian hosts only");
  const uint64_t n = raw.header.num_nodes;
  const uint64_t e = raw.header.num_triples;
  const uint64_t t = raw.header.num_terms;

  const bool fc = raw.header.version == kFormatVersionFrontCoded;
  const size_t num_sections = SectionCount(raw.header.version);
  if (options.verify_checksums) {
    for (size_t s = 0; s < num_sections; ++s) {
      if (Checksum64(raw.base + raw.table[s].offset, raw.table[s].size) !=
          raw.table[s].checksum) {
        return Status::Corruption(
            "section " + std::string(SectionName(kSectionOrder[s])) +
            " checksum mismatch: " + path);
      }
    }
  }

  const auto term_offsets = SectionSpan<uint64_t>(raw, 0);
  const auto blob = SectionSpan<char>(raw, 1);
  const auto kinds = SectionSpan<uint8_t>(raw, 2);
  const auto lex = SectionSpan<uint32_t>(raw, 3);
  const auto triples = SectionSpan<Triple>(raw, 4);
  const auto out_offsets = SectionSpan<uint64_t>(raw, 5);
  const auto out_pairs = SectionSpan<PredicateObject>(raw, 6);
  const auto in_offsets = SectionSpan<uint64_t>(raw, 7);
  const auto in_subjects = SectionSpan<NodeId>(raw, 8);
  const auto prefix_lens =
      fc ? SectionSpan<uint32_t>(raw, 9) : std::span<const uint32_t>{};

  // Structural validation: everything FromIndexedParts trusts. Runs on
  // every load — these invariants are what make a malformed file safe to
  // reject instead of undefined behavior.
  const auto corrupt = [&path](std::string_view what) {
    return Status::Corruption(std::string(what) + ": " + path);
  };
  if (raw.table[8].size % sizeof(NodeId) != 0) {
    return corrupt("in-index subject section misaligned");
  }
  uint64_t arena_bytes = 0;
  if (fc) {
    // Front-coded geometry: offsets span the suffix blob, restarts are
    // whole terms, prefixes bounded by the previous decoded length — the
    // decode loop below then never reads outside its inputs.
    if (const char* defect = CheckFrontCodedGeometry(
            prefix_lens, term_offsets, blob.size(), &arena_bytes)) {
      return corrupt(defect);
    }
  } else {
    if (term_offsets[0] != 0 || term_offsets[t] != blob.size()) {
      return corrupt("term offset table does not span the term blob");
    }
    for (uint64_t i = 0; i < t; ++i) {
      if (term_offsets[i] > term_offsets[i + 1]) {
        return corrupt("term offsets not monotonic");
      }
    }
  }
  for (uint64_t i = 0; i < n; ++i) {
    if (kinds[i] > static_cast<uint8_t>(TermKind::kBlank)) {
      return corrupt("node kind out of range");
    }
    if (lex[i] >= t) {
      return corrupt("node label references term out of range");
    }
  }
  for (uint64_t i = 0; i < e; ++i) {
    const Triple& tr = triples[i];
    if (tr.s >= n || tr.p >= n || tr.o >= n) {
      return corrupt("triple references node out of range");
    }
    if (i > 0 && !(triples[i - 1] < tr)) {
      return corrupt("triples not sorted and deduplicated");
    }
  }
  // Each offsets array must be proven monotone END TO END before any entry
  // is used as an index: monotonicity plus the endpoint equality bounds
  // every entry by the payload length. Interleaving the monotone check with
  // the per-node consistency loop would let out_offsets = [0, HUGE, ...]
  // drive reads far past the section before the i=1 check fires.
  if (out_offsets[0] != 0 || out_offsets[n] != e) {
    return corrupt("out-index offsets do not span the triple list");
  }
  for (uint64_t i = 0; i < n; ++i) {
    if (out_offsets[i] > out_offsets[i + 1]) {
      return corrupt("out-index offsets not monotonic");
    }
  }
  for (uint64_t i = 0; i < n; ++i) {
    for (uint64_t k = out_offsets[i]; k < out_offsets[i + 1]; ++k) {
      if (triples[k].s != i || out_pairs[k].p != triples[k].p ||
          out_pairs[k].o != triples[k].o) {
        return corrupt("out-index inconsistent with triple list");
      }
    }
  }
  if (in_offsets[0] != 0 ||
      in_offsets[n] != static_cast<uint64_t>(in_subjects.size())) {
    return corrupt("in-index offsets do not span the subject list");
  }
  for (uint64_t i = 0; i < n; ++i) {
    if (in_offsets[i] > in_offsets[i + 1]) {
      return corrupt("in-index offsets not monotonic");
    }
  }
  for (uint64_t i = 0; i < n; ++i) {
    for (uint64_t k = in_offsets[i]; k < in_offsets[i + 1]; ++k) {
      if (in_subjects[k] >= n ||
          (k > in_offsets[i] && in_subjects[k - 1] >= in_subjects[k])) {
        return corrupt("in-index subjects malformed");
      }
    }
  }

  // Dictionary: intern each term as a view into the pinned payload. With a
  // fresh dictionary this assigns ids 0..t-1 in file order (identity map);
  // with a shared dictionary the ids are remapped transparently.
  if (dict == nullptr) dict = std::make_shared<Dictionary>();
  dict->PinArena(raw.pin);
  const size_t dict_before = dict->size();
  dict->Reserve(dict_before + t);
  std::vector<LexId> remap(t);
  bool identity = true;
  if (fc) {
    // Front-coded decode. Restart terms are complete in the blob and stay
    // zero-copy views; non-restart terms are materialized (previous term's
    // head + own suffix) into a side arena pinned to the dictionary. The
    // arena is reserved to its exact final size and MUST NOT reallocate —
    // views already interned point into it. The previous term is always
    // contiguous (a blob view or an arena entry), so its head is one copy.
    auto arena = std::make_shared<std::vector<char>>();
    arena->reserve(arena_bytes);
    std::string_view prev;
    for (uint64_t i = 0; i < t; ++i) {
      const uint64_t slen = term_offsets[i + 1] - term_offsets[i];
      const uint32_t plen = prefix_lens[i];
      std::string_view term;
      if (plen == 0) {
        term = std::string_view(blob.data() + term_offsets[i], slen);
      } else {
        const size_t pos = arena->size();
        arena->insert(arena->end(), prev.data(), prev.data() + plen);
        arena->insert(arena->end(), blob.data() + term_offsets[i],
                      blob.data() + term_offsets[i] + slen);
        term = std::string_view(arena->data() + pos, plen + slen);
      }
      if (i > 0 && !(prev < term)) {
        return corrupt("front-coded terms not strictly ascending");
      }
      remap[i] = dict->InternPinned(term);
      identity = identity && remap[i] == i;
      prev = term;
    }
    if (!arena->empty()) dict->PinArena(std::move(arena));
  } else {
    for (uint64_t i = 0; i < t; ++i) {
      std::string_view term(blob.data() + term_offsets[i],
                            term_offsets[i + 1] - term_offsets[i]);
      remap[i] = dict->InternPinned(term);
      identity = identity && remap[i] == i;
    }
  }

  std::vector<NodeLabel> labels(n);
  for (uint64_t i = 0; i < n; ++i) {
    labels[i] = NodeLabel{static_cast<TermKind>(kinds[i]), remap[lex[i]]};
  }

  if (stats != nullptr) {
    stats->file_bytes = raw.size;
    stats->terms_interned = dict->size() - dict_before;
    stats->identity_term_map = identity;
    stats->used_mmap = options.use_mmap;
  }

  return TripleGraph::FromIndexedParts(
      std::move(dict), std::move(labels),
      SharedArray<Triple>(raw.pin, triples.data(), triples.size()),
      SharedArray<uint64_t>(raw.pin, out_offsets.data(), out_offsets.size()),
      SharedArray<PredicateObject>(raw.pin, out_pairs.data(),
                                   out_pairs.size()),
      SharedArray<uint64_t>(raw.pin, in_offsets.data(), in_offsets.size()),
      SharedArray<NodeId>(raw.pin, in_subjects.data(), in_subjects.size()));
}

}  // namespace

Result<TripleGraph> LoadSnapshot(const std::string& path,
                                 std::shared_ptr<Dictionary> dict,
                                 const SnapshotLoadOptions& options,
                                 SnapshotLoadStats* stats) {
  RDFALIGN_ASSIGN_OR_RETURN(RawSnapshot raw,
                            AcquireBytes(path, options.use_mmap));
  return LoadFromRaw(raw, std::move(dict), options, stats, path);
}

Result<TripleGraph> LoadSnapshotFromMemory(std::shared_ptr<const void> pin,
                                           const unsigned char* data,
                                           uint64_t size,
                                           std::shared_ptr<Dictionary> dict,
                                           const SnapshotLoadOptions& options,
                                           SnapshotLoadStats* stats,
                                           const std::string& name) {
  RawSnapshot raw;
  raw.pin = std::move(pin);
  raw.base = data;
  raw.size = size;
  RDFALIGN_RETURN_IF_ERROR(
      ValidateHeader(data, size, size, &raw.header, raw.table, name));
  SnapshotLoadOptions in_place = options;
  in_place.use_mmap = false;  // no file involved; report a buffered load
  return LoadFromRaw(raw, std::move(dict), in_place, stats, name);
}

Result<SnapshotInfo> ReadSnapshotInfo(const std::string& path) {
  std::ifstream in;
  SnapshotHeader header;
  SectionEntry table[kNumSectionsV2];
  RDFALIGN_RETURN_IF_ERROR(
      OpenAndValidatePrefix(path, in, &header, table).status());
  SnapshotInfo info;
  info.version = header.version;
  info.num_nodes = header.num_nodes;
  info.num_triples = header.num_triples;
  info.num_terms = header.num_terms;
  info.file_size = header.file_size;
  for (size_t s = 0; s < SectionCount(header.version); ++s) {
    info.sections.push_back(SnapshotSectionInfo{
        kSectionOrder[s], table[s].offset, table[s].size, table[s].checksum});
  }
  return info;
}

bool LooksLikeSnapshot(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::array<char, 8> magic = {};
  in.read(magic.data(), magic.size());
  return in.gcount() == static_cast<std::streamsize>(magic.size()) &&
         magic == kMagic;
}

}  // namespace rdfalign::store
