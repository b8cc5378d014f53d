#include "store/update_fragment.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <numeric>
#include <span>
#include <unordered_map>

#include "store/atomic_writer.h"
#include "store/container.h"
#include "store/front_coding.h"

namespace rdfalign::store {

namespace {

std::string_view UpdateSectionName(UpdateSectionId id) {
  switch (id) {
    case UpdateSectionId::kTermOffsets:
      return "term_offsets";
    case UpdateSectionId::kTermBlob:
      return "term_blob";
    case UpdateSectionId::kNodeKinds:
      return "node_kinds";
    case UpdateSectionId::kNodeLex:
      return "node_lex";
    case UpdateSectionId::kRemovedNodes:
      return "removed_nodes";
    case UpdateSectionId::kRemovedTriples:
      return "removed_triples";
    case UpdateSectionId::kAddedTriples:
      return "added_triples";
    case UpdateSectionId::kTermPrefixLens:
      return "term_prefix_lens";
  }
  return "unknown";
}

const ContainerFormat kUpdateFormat = {
    "update fragment",
    kUpdateMagic,
    kUpdateFormatVersion,
    kUpdateFormatVersionFrontCoded,
    sizeof(UpdateHeader),
    [](const unsigned char* header) -> std::optional<uint64_t> {
      UpdateHeader h;
      std::memcpy(&h, header, sizeof(h));
      return h.version == kUpdateFormatVersion ? kNumUpdateSections
                                               : kNumUpdateSectionsV2;
    },
    SequentialSectionId,
    [](uint32_t id) {
      return UpdateSectionName(static_cast<UpdateSectionId>(id));
    },
};

bool TripleLess(const Triple& a, const Triple& b) {
  if (a.s != b.s) return a.s < b.s;
  if (a.p != b.p) return a.p < b.p;
  return a.o < b.o;
}

bool TripleEq(const Triple& a, const Triple& b) {
  return a.s == b.s && a.p == b.p && a.o == b.o;
}

/// Internal invariants every encoded (and every accepted decoded) batch
/// satisfies; shared so a hand-built batch fails the same way a corrupt
/// fragment does.
Status ValidateBatch(const UpdateBatch& batch, const std::string& name) {
  const size_t refs = batch.nodes.size();
  if (batch.num_new > refs) {
    return Status::InvalidArgument(
        "update batch declares more new nodes than references: " + name);
  }
  for (size_t i = 0; i < refs; ++i) {
    const auto kind = static_cast<uint32_t>(batch.nodes[i].kind);
    if (kind > static_cast<uint32_t>(TermKind::kBlank)) {
      return Status::Corruption("update batch node kind out of range: " +
                                name);
    }
  }
  auto check_triples = [&](const std::vector<Triple>& ts,
                           const char* what) -> Status {
    for (size_t i = 0; i < ts.size(); ++i) {
      if (ts[i].s >= refs || ts[i].p >= refs || ts[i].o >= refs) {
        return Status::Corruption(std::string("update batch ") + what +
                                  " references an undeclared node: " + name);
      }
      if (i > 0 && !TripleLess(ts[i - 1], ts[i])) {
        return Status::Corruption(std::string("update batch ") + what +
                                  " not sorted/deduplicated: " + name);
      }
    }
    return Status::OK();
  };
  RDFALIGN_RETURN_IF_ERROR(check_triples(batch.removed, "removed triples"));
  RDFALIGN_RETURN_IF_ERROR(check_triples(batch.added, "added triples"));
  for (size_t i = 0; i < batch.removed_nodes.size(); ++i) {
    const uint32_t r = batch.removed_nodes[i];
    if (r < batch.num_new || r >= refs) {
      return Status::Corruption(
          "update batch retires a node outside the existing-reference "
          "range: " +
          name);
    }
    if (i > 0 && batch.removed_nodes[i - 1] >= r) {
      return Status::Corruption(
          "update batch removed-node list not ascending: " + name);
    }
  }
  return Status::OK();
}

}  // namespace

bool LooksLikeUpdateFragment(std::string_view bytes) {
  return bytes.size() >= kUpdateMagic.size() &&
         std::memcmp(bytes.data(), kUpdateMagic.data(),
                     kUpdateMagic.size()) == 0;
}

bool LooksLikeUpdateFile(const std::string& path) {
  return HasMagic(path, kUpdateMagic);
}

Result<std::string> EncodeUpdateBatch(const UpdateBatch& batch) {
  static_assert(std::endian::native == std::endian::little,
                "update fragments are written on little-endian hosts only");
  RDFALIGN_RETURN_IF_ERROR(ValidateBatch(batch, "encode"));

  // Term table: the distinct lexical forms, sorted lexicographically so
  // consecutive terms share prefixes.
  std::unordered_map<std::string_view, uint32_t> term_of;
  std::vector<std::string_view> terms;
  std::vector<uint32_t> lex(batch.nodes.size());
  std::vector<uint8_t> kinds(batch.nodes.size());
  for (size_t i = 0; i < batch.nodes.size(); ++i) {
    kinds[i] = static_cast<uint8_t>(batch.nodes[i].kind);
    const std::string_view form = batch.nodes[i].lex;
    auto [it, inserted] =
        term_of.emplace(form, static_cast<uint32_t>(terms.size()));
    if (inserted) terms.push_back(form);
    lex[i] = it->second;
  }
  // The forms are distinct (term_of interned uniquely), so the sort is
  // strict and the remap a permutation.
  std::vector<uint32_t> order(terms.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&terms](uint32_t a, uint32_t b) {
    return terms[a] < terms[b];
  });
  std::vector<uint32_t> remap(terms.size());
  std::vector<std::string_view> sorted(terms.size());
  for (size_t k = 0; k < order.size(); ++k) {
    remap[order[k]] = static_cast<uint32_t>(k);
    sorted[k] = terms[order[k]];
  }
  for (uint32_t& t : lex) t = remap[t];
  // The blob holds each term's suffix tail past its shared prefix.
  FrontCodedLayout layout = FrontCodeTerms(
      sorted.size(), [&sorted](size_t k) { return sorted[k]; });

  UpdateHeader header{};
  header.version = kUpdateFormatVersionFrontCoded;
  header.sequence = batch.sequence;
  header.num_refs = batch.nodes.size();
  header.num_new_nodes = batch.num_new;
  header.num_removed_nodes = batch.removed_nodes.size();
  header.num_removed_triples = batch.removed.size();
  header.num_added_triples = batch.added.size();
  header.num_terms = sorted.size();
  const SectionSource sections[] = {
      {UpdateSectionId::kTermOffsets, {Bytes(layout.suffix_offsets)}},
      {UpdateSectionId::kTermBlob, std::move(layout.suffixes)},
      {UpdateSectionId::kNodeKinds, {Bytes(kinds)}},
      {UpdateSectionId::kNodeLex, {Bytes(lex)}},
      {UpdateSectionId::kRemovedNodes, {Bytes(batch.removed_nodes)}},
      {UpdateSectionId::kRemovedTriples, {Bytes(batch.removed)}},
      {UpdateSectionId::kAddedTriples, {Bytes(batch.added)}},
      {UpdateSectionId::kTermPrefixLens, {Bytes(layout.prefix_lens)}},
  };
  return EncodeContainer(kUpdateFormat, header, sections);
}

namespace {

/// Decodes a validated fragment container: section checksums, count
/// bounds, expected sizes, the term table and node columns, then the batch
/// itself.
Result<UpdateBatch> DecodeContainer(const Container& c,
                                    const std::string& name) {
  RDFALIGN_RETURN_IF_ERROR(VerifySectionChecksums(c, 1, name));
  const UpdateHeader header = c.HeaderAs<UpdateHeader>();
  const bool fc = header.version == kUpdateFormatVersionFrontCoded;
  const std::vector<SectionEntry>& table = c.table;
  auto expect_size = [&](size_t s, uint64_t want) -> Status {
    if (table[s].size != want) {
      return Status::Corruption(c.SectionLabel(s) + " size mismatch: " +
                                name);
    }
    return Status::OK();
  };
  const uint64_t refs = header.num_refs;
  const uint64_t terms = header.num_terms;
  if (refs > 0xffffffffull || terms > 0xffffffffull) {
    return Status::Corruption("update fragment counts out of range: " + name);
  }
  RDFALIGN_RETURN_IF_ERROR(expect_size(0, (terms + 1) * sizeof(uint64_t)));
  RDFALIGN_RETURN_IF_ERROR(expect_size(2, refs));
  RDFALIGN_RETURN_IF_ERROR(expect_size(3, refs * sizeof(uint32_t)));
  RDFALIGN_RETURN_IF_ERROR(
      expect_size(4, header.num_removed_nodes * sizeof(uint32_t)));
  RDFALIGN_RETURN_IF_ERROR(
      expect_size(5, header.num_removed_triples * sizeof(Triple)));
  RDFALIGN_RETURN_IF_ERROR(
      expect_size(6, header.num_added_triples * sizeof(Triple)));
  if (fc) {
    RDFALIGN_RETURN_IF_ERROR(expect_size(7, terms * sizeof(uint32_t)));
  }

  const auto term_offsets = c.Section<uint64_t>(0);
  const auto blob = c.Section<char>(1);
  const auto prefix_lens =
      fc ? c.Section<uint32_t>(7) : std::span<const uint32_t>{};
  const auto kinds = c.Section<uint8_t>(2);
  const auto lex = c.Section<uint32_t>(3);
  TermTable term_table;
  const char* defect =
      DecodeTermTable(term_offsets, prefix_lens, fc, blob, &term_table);
  if (defect == nullptr) defect = CheckNodeColumns(kinds, lex, terms);
  if (defect != nullptr) {
    return Status::Corruption(std::string(defect) + ": " + name);
  }
  // Node references index the terms in any order.
  std::vector<std::string_view> forms(terms);
  TermReader reader(term_table);
  for (std::string_view& form : forms) form = reader.Next();

  UpdateBatch batch;
  batch.sequence = header.sequence;
  batch.num_new = static_cast<uint32_t>(header.num_new_nodes);
  batch.nodes.resize(refs);
  for (uint64_t i = 0; i < refs; ++i) {
    batch.nodes[i].kind = static_cast<TermKind>(kinds[i]);
    batch.nodes[i].lex = forms[lex[i]];
  }
  const auto removed_nodes = c.Section<uint32_t>(4);
  batch.removed_nodes.assign(removed_nodes.begin(), removed_nodes.end());
  const auto removed = c.Section<Triple>(5);
  batch.removed.assign(removed.begin(), removed.end());
  const auto added = c.Section<Triple>(6);
  batch.added.assign(added.begin(), added.end());

  RDFALIGN_RETURN_IF_ERROR(ValidateBatch(batch, name));
  return batch;
}

}  // namespace

Result<UpdateBatch> DecodeUpdateBatch(std::string_view bytes,
                                      const std::string& name) {
  RDFALIGN_ASSIGN_OR_RETURN(
      const Container c,
      ParseContainer(kUpdateFormat, nullptr,
                     reinterpret_cast<const unsigned char*>(bytes.data()),
                     bytes.size(), name));
  return DecodeContainer(c, name);
}

Result<UpdateBatch> BuildUpdateBatch(const TripleGraph& base,
                                     const TripleGraph& next,
                                     uint64_t sequence) {
  // Node matching by (kind, lexical form). GraphBuilder guarantees unique
  // labels per graph (blanks by local name), so the match is one-to-one.
  auto key_of = [](TermKind kind, std::string_view lex) {
    std::string key;
    key.reserve(lex.size() + 2);
    key.push_back(static_cast<char>(kind));
    key.push_back(':');
    key.append(lex);
    return key;
  };
  std::unordered_map<std::string, NodeId> in_next;
  in_next.reserve(next.NumNodes());
  for (NodeId n = 0; n < next.NumNodes(); ++n) {
    if (!in_next.emplace(key_of(next.KindOf(n), next.Lexical(n)), n).second) {
      return Status::InvalidArgument(
          "next graph has duplicate node labels; cannot build an update "
          "batch");
    }
  }
  std::vector<NodeId> base_to_next(base.NumNodes(), kInvalidNode);
  std::vector<NodeId> next_to_base(next.NumNodes(), kInvalidNode);
  {
    std::unordered_map<std::string, NodeId> seen;
    seen.reserve(base.NumNodes());
    for (NodeId b = 0; b < base.NumNodes(); ++b) {
      const std::string key = key_of(base.KindOf(b), base.Lexical(b));
      if (!seen.emplace(key, b).second) {
        return Status::InvalidArgument(
            "base graph has duplicate node labels; cannot build an update "
            "batch");
      }
      auto it = in_next.find(key);
      if (it != in_next.end()) {
        base_to_next[b] = it->second;
        next_to_base[it->second] = b;
      }
    }
  }

  UpdateBatch batch;
  batch.sequence = sequence;
  // References: new nodes first (ascending next id), then existing nodes in
  // first-use order over a deterministic walk.
  std::vector<uint32_t> ref_of_next(next.NumNodes(), kInvalidNode);
  std::vector<uint32_t> ref_of_base(base.NumNodes(), kInvalidNode);
  for (NodeId n = 0; n < next.NumNodes(); ++n) {
    if (next_to_base[n] != kInvalidNode) continue;
    ref_of_next[n] = static_cast<uint32_t>(batch.nodes.size());
    batch.nodes.push_back(
        {next.KindOf(n), std::string(next.Lexical(n))});
  }
  batch.num_new = static_cast<uint32_t>(batch.nodes.size());
  auto ref_existing_next = [&](NodeId n) -> uint32_t {
    if (ref_of_next[n] == kInvalidNode) {
      ref_of_next[n] = static_cast<uint32_t>(batch.nodes.size());
      const NodeId b = next_to_base[n];
      if (b != kInvalidNode) ref_of_base[b] = ref_of_next[n];
      batch.nodes.push_back({next.KindOf(n), std::string(next.Lexical(n))});
    }
    return ref_of_next[n];
  };
  auto ref_base = [&](NodeId b) -> uint32_t {
    const NodeId n = base_to_next[b];
    if (n != kInvalidNode) return ref_existing_next(n);
    if (ref_of_base[b] == kInvalidNode) {
      ref_of_base[b] = static_cast<uint32_t>(batch.nodes.size());
      batch.nodes.push_back({base.KindOf(b), std::string(base.Lexical(b))});
    }
    return ref_of_base[b];
  };

  // Removed triples: base triples whose label-image is absent from next.
  const auto next_triples = next.triples();
  for (const Triple& t : base.triples()) {
    const NodeId s = base_to_next[t.s];
    const NodeId p = base_to_next[t.p];
    const NodeId o = base_to_next[t.o];
    bool kept = false;
    if (s != kInvalidNode && p != kInvalidNode && o != kInvalidNode) {
      const Triple mapped{s, p, o};
      kept = std::binary_search(next_triples.begin(), next_triples.end(),
                                mapped, TripleLess);
    }
    if (!kept) {
      batch.removed.push_back(
          {ref_base(t.s), ref_base(t.p), ref_base(t.o)});
    }
  }
  // Added triples: next triples whose label-preimage is absent from base.
  const auto base_triples = base.triples();
  for (const Triple& t : next_triples) {
    const NodeId s = next_to_base[t.s];
    const NodeId p = next_to_base[t.p];
    const NodeId o = next_to_base[t.o];
    bool existed = false;
    if (s != kInvalidNode && p != kInvalidNode && o != kInvalidNode) {
      const Triple mapped{s, p, o};
      existed = std::binary_search(base_triples.begin(), base_triples.end(),
                                   mapped, TripleLess);
    }
    if (!existed) {
      batch.added.push_back({ref_existing_next(t.s), ref_existing_next(t.p),
                             ref_existing_next(t.o)});
    }
  }
  // Retired nodes: base nodes with no next image.
  for (NodeId b = 0; b < base.NumNodes(); ++b) {
    if (base_to_next[b] == kInvalidNode) {
      batch.removed_nodes.push_back(ref_base(b));
    }
  }

  std::sort(batch.removed.begin(), batch.removed.end(), TripleLess);
  batch.removed.erase(std::unique(batch.removed.begin(), batch.removed.end(),
                                  TripleEq),
                      batch.removed.end());
  std::sort(batch.added.begin(), batch.added.end(), TripleLess);
  batch.added.erase(
      std::unique(batch.added.begin(), batch.added.end(), TripleEq),
      batch.added.end());
  std::sort(batch.removed_nodes.begin(), batch.removed_nodes.end());

  RDFALIGN_RETURN_IF_ERROR(ValidateBatch(batch, "build"));
  return batch;
}

Status WriteUpdateFile(const UpdateBatch& batch, const std::string& path) {
  RDFALIGN_ASSIGN_OR_RETURN(std::string bytes, EncodeUpdateBatch(batch));
  return AtomicWriteFile(path, bytes.data(), bytes.size(), "update fragment");
}

Result<UpdateBatch> ReadUpdateFile(const std::string& path) {
  RDFALIGN_ASSIGN_OR_RETURN(
      const Container c,
      ReadContainer(kUpdateFormat, path, ContainerRead::kBuffered));
  return DecodeContainer(c, path);
}

}  // namespace rdfalign::store
