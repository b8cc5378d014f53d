// Update fragments ("RDFUPDT1"): the wire encoding of one live update
// batch for the streaming aligner (src/stream/, docs/stream.md).
//
// A fragment carries a *set-semantics* change to the mutable target graph:
// triples to remove, triples to add, and nodes to retire, all expressed
// against node labels rather than node ids. A delta file (RDFDELT1) ties
// its removed/kept/added-run vocabulary to one frozen base numbering; a
// stream has no such numbering — the receiver's node ids drift from any
// materialized version as nodes are appended — so fragments resolve every
// node reference by (kind, lexical form) at apply time. That makes them
// generatable statelessly from any adjacent version pair (`rdfalign
// updates`) and replayable against any receiver holding the same labeled
// graph, which is exactly the batch-equivalence contract the stream gate
// checks.
//
// File layout: the container of store/container.h — a 96-byte
// UpdateHeader, the section table, checksummed 8-byte-aligned payloads.
//
// Node references: the fragment declares `num_refs` node labels; the
// first `num_new_nodes` of them MUST NOT exist in the receiver's target
// graph (they are created by this batch), the rest MUST already exist
// (they are resolved by label). Triples and removed-node lists index this
// reference table.

#ifndef RDFALIGN_STORE_UPDATE_FRAGMENT_H_
#define RDFALIGN_STORE_UPDATE_FRAGMENT_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "rdf/graph.h"
#include "rdf/term.h"
#include "store/container.h"
#include "store/format.h"
#include "util/result.h"
#include "util/status.h"

namespace rdfalign::store {

/// "RDFUPDT1" — identifies an rdfalign update fragment.
inline constexpr std::array<char, 8> kUpdateMagic = {'R', 'D', 'F', 'U',
                                                     'P', 'D', 'T', '1'};

/// Version 1: raw term table in first-use order. Read only.
inline constexpr uint32_t kUpdateFormatVersion = 1;

/// Version 2 front-codes the term dictionary: terms are sorted
/// lexicographically, kTermOffsets indexes *suffix* tails in kTermBlob,
/// and a kTermPrefixLens section carries the shared-prefix lengths (see
/// store/front_coding.h and docs/store.md "Front-coded dictionary"). The
/// only version written.
inline constexpr uint32_t kUpdateFormatVersionFrontCoded = 2;

/// The payload sections of an update fragment, in file order. Version-1
/// fragments carry the first seven; version-2 fragments add
/// kTermPrefixLens.
enum class UpdateSectionId : uint32_t {
  kTermOffsets = 1,     ///< (num_terms + 1) x u64 into kTermBlob
  kTermBlob = 2,        ///< concatenated UTF-8 lexical forms (v2: suffixes)
  kNodeKinds = 3,       ///< num_refs x u8: TermKind per node reference
  kNodeLex = 4,         ///< num_refs x u32: term index per node reference
  kRemovedNodes = 5,    ///< u32[]: node references retired by this batch,
                        ///< ascending; must index the existing-node suffix
  kRemovedTriples = 6,  ///< Triple[] of node references, sorted ascending
  kAddedTriples = 7,    ///< Triple[] of node references, sorted ascending
  kTermPrefixLens = 8,  ///< v2 only: num_terms x u32 shared-prefix lengths
};

inline constexpr size_t kNumUpdateSections = 7;
inline constexpr size_t kNumUpdateSectionsV2 = 8;

/// The fixed-size fragment header.
struct UpdateHeader {
  std::array<char, 8> magic;    ///< kUpdateMagic
  uint32_t version;             ///< kUpdateFormatVersion
  uint32_t endian_tag;          ///< kEndianTag
  uint64_t sequence;            ///< producer-assigned batch number
  uint64_t num_refs;            ///< node references declared
  uint64_t num_new_nodes;       ///< leading refs created by this batch
  uint64_t num_removed_nodes;   ///< entries in kRemovedNodes
  uint64_t num_removed_triples; ///< entries in kRemovedTriples
  uint64_t num_added_triples;   ///< entries in kAddedTriples
  uint64_t num_terms;           ///< distinct lexical forms referenced
  uint64_t num_sections;        ///< kNumUpdateSections
  uint64_t file_size;           ///< total fragment size in bytes
  uint64_t header_checksum;     ///< Checksum64 of header + section table,
                                ///< computed with this field set to zero
};
static_assert(sizeof(UpdateHeader) == 96);
static_assert(std::is_trivially_copyable_v<UpdateHeader>);

/// One update batch, decoded. Triples index `nodes`; references
/// [0, num_new) are created by the batch, [num_new, nodes.size()) resolve
/// to existing target-graph nodes by (kind, lex).
struct UpdateBatch {
  struct NodeRef {
    TermKind kind = TermKind::kUri;
    std::string lex;
  };
  std::vector<NodeRef> nodes;
  uint32_t num_new = 0;
  std::vector<Triple> removed;             ///< sorted, deduplicated
  std::vector<Triple> added;               ///< sorted, deduplicated
  std::vector<uint32_t> removed_nodes;     ///< ascending ref indexes
  uint64_t sequence = 0;
};

/// Serializes a batch (validating its internal invariants: ref indexes in
/// range, triple lists sorted and deduplicated, removed nodes ascending
/// existing refs). The term dictionary is front-coded (format version 2).
Result<std::string> EncodeUpdateBatch(const UpdateBatch& batch);

/// Parses and fully validates a fragment image: magic/version/endianness,
/// header and per-section checksums, section geometry, ref/term index
/// bounds, sortedness. `name` labels error messages (a path or
/// "stream frame").
Result<UpdateBatch> DecodeUpdateBatch(std::string_view bytes,
                                      const std::string& name);

/// True when `bytes` starts with the update-fragment magic.
bool LooksLikeUpdateFragment(std::string_view bytes);

/// True when the file at `path` starts with the update-fragment magic
/// (the `rdfalign info` sniffing convention of LooksLikeDelta).
bool LooksLikeUpdateFile(const std::string& path);

/// Computes the batch turning the labeled graph `base` into `next`:
/// node matching by (kind, lexical form) — blanks by local name — with
/// next-only nodes created, base-only nodes retired, and the triple
/// difference under that matching. Deterministic: reference order is
/// new nodes in `next` id order, then existing nodes in first-use order.
Result<UpdateBatch> BuildUpdateBatch(const TripleGraph& base,
                                     const TripleGraph& next,
                                     uint64_t sequence);

/// File convenience wrappers over Encode/Decode. ReadUpdateFile validates
/// the container from the file's prefix before buffering the file.
Status WriteUpdateFile(const UpdateBatch& batch, const std::string& path);
Result<UpdateBatch> ReadUpdateFile(const std::string& path);

}  // namespace rdfalign::store

#endif  // RDFALIGN_STORE_UPDATE_FRAGMENT_H_
