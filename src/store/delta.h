// Incremental snapshot deltas: the binary change between two versions.
//
// WriteDelta serializes the difference base -> next — dictionary
// additions, the next version's node columns, the alignment-derived node
// remap, and the triple change as removed/kept runs over the base triple
// list plus a sorted added-triple list — into the checksummed section
// format of store/format.h. ApplyDelta reconstructs the next version from
// a materialized base graph with no parsing and no sorting: the kept runs
// are mapped through the node remap and linearly merged with the added
// triples (both pre-sorted in next-id space), and the CSR indexes are
// rebuilt from the merged list by the same counting passes as
// TripleGraph::BuildIndexes — so the result is bit-identical (triples and
// both CSR arrays) to loading a full snapshot of the next version, with
// labels equal term for term.
//
// A delta applies to exactly one base *content*: the header carries
// GraphFingerprint(base) — computed in canonical (lexicographic) term
// order, so it is independent of dictionary history — and ApplyDelta
// refuses (InvalidArgument) any graph whose fingerprint differs. A graph
// materialized by an earlier ApplyDelta is therefore a valid base for the
// next delta in a chain. Malformed or crafted delta files are
// rejected with Corruption statuses — every array reference is validated
// before use, as in the snapshot loader. See docs/store.md ("Delta
// format") for the normative description.

#ifndef RDFALIGN_STORE_DELTA_H_
#define RDFALIGN_STORE_DELTA_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "core/delta.h"
#include "rdf/graph.h"
#include "store/format.h"
#include "util/result.h"

namespace rdfalign::store {

/// Telemetry of a delta write.
struct DeltaWriteStats {
  uint64_t kept_triples = 0;     ///< base triples surviving into next
  uint64_t removed_triples = 0;  ///< base triples absent from next
  uint64_t added_triples = 0;    ///< next triples with no base counterpart
  uint64_t new_terms = 0;        ///< dictionary terms new in next
  uint64_t mapped_nodes = 0;     ///< next nodes with an aligned base node
  uint64_t kept_runs = 0;        ///< run entries encoding the kept triples
  uint64_t file_bytes = 0;
};

/// Serializes the change base -> next to `path`. The two graphs must share
/// one Dictionary (the alignment precondition); `alignment.next_to_base`
/// must have one entry per next node, each kInvalidNode or a distinct base
/// node id. An all-invalid map is legal — the delta then stores next in
/// full as removals plus additions. The new-term blob is front-coded
/// (format version 2).
Status WriteDelta(const TripleGraph& base, const TripleGraph& next,
                  const VersionNodeMap& alignment, const std::string& path,
                  DeltaWriteStats* stats = nullptr);

/// Stream variant (the archive store embeds delta images this way).
Status WriteDeltaToStream(const TripleGraph& base, const TripleGraph& next,
                          const VersionNodeMap& alignment, std::ostream& out,
                          const std::string& name,
                          DeltaWriteStats* stats = nullptr);

struct DeltaApplyOptions {
  /// Verify the per-section checksums. Structural validation runs
  /// regardless (same policy as SnapshotLoadOptions).
  bool verify_checksums = true;
  /// Worker threads for section checksum verification (0 = one per
  /// hardware thread); the CSR rebuild is serial. The replayed graph is
  /// bit-identical for any value; 1 keeps everything on the calling
  /// thread.
  size_t threads = 1;
};

/// Telemetry of a delta application.
struct DeltaApplyStats {
  uint64_t file_bytes = 0;
  uint64_t kept_triples = 0;
  uint64_t removed_triples = 0;
  uint64_t added_triples = 0;
  uint64_t new_terms = 0;
  uint64_t terms_interned = 0;  ///< terms new to the target dictionary
};

/// Reconstructs the next version from `base` and the delta at `path`.
/// `dict` is the target dictionary of the result — pass nullptr for a
/// fresh one, or the dictionary shared along a replayed chain. Returns
/// InvalidArgument when the delta was not written against this base
/// (count or fingerprint mismatch), Corruption for malformed content.
Result<TripleGraph> ApplyDelta(const TripleGraph& base,
                               const std::string& path,
                               std::shared_ptr<Dictionary> dict,
                               const DeltaApplyOptions& options = {},
                               DeltaApplyStats* stats = nullptr);

/// Applies a delta image already resident in memory (an archive section).
Result<TripleGraph> ApplyDeltaFromMemory(
    const TripleGraph& base, const unsigned char* data, uint64_t size,
    std::shared_ptr<Dictionary> dict, const DeltaApplyOptions& options = {},
    DeltaApplyStats* stats = nullptr, const std::string& name = "<memory>");

/// Section metadata as reported by `rdfalign info` for delta files.
struct DeltaSectionInfo {
  DeltaSectionId id;
  uint64_t offset = 0;
  uint64_t size = 0;
  uint64_t checksum = 0;
};

/// Header-level delta metadata (no payload is read) — `rdfalign info`.
struct DeltaInfo {
  uint32_t version = 0;
  uint64_t base_nodes = 0;
  uint64_t base_triples = 0;
  uint64_t base_terms = 0;
  uint64_t base_fingerprint = 0;
  uint64_t next_nodes = 0;
  uint64_t next_triples = 0;
  uint64_t next_terms = 0;
  uint64_t num_new_terms = 0;
  uint64_t file_size = 0;
  std::vector<DeltaSectionInfo> sections;
};

/// Reads and validates the delta header and section table only.
Result<DeltaInfo> ReadDeltaInfo(const std::string& path);

/// Human-readable delta section name ("term_sources", "kept_runs", ...).
std::string_view DeltaSectionName(DeltaSectionId id);

/// True when `path` starts with the delta magic.
bool LooksLikeDelta(const std::string& path);

/// Content fingerprint binding a delta to its base: a Checksum64 stream
/// over the node count, triple count, node kinds, the node label column in
/// canonical dense term numbering, the referenced terms themselves
/// (length-prefixed, in lexicographic order), and the raw triple array.
/// Canonical in the graph's *content* — identical for a built graph, its
/// snapshot reload, and its patch-replay reconstruction, independent of
/// dictionary history; any label, kind, or triple difference changes it.
uint64_t GraphFingerprint(const TripleGraph& g);

}  // namespace rdfalign::store

#endif  // RDFALIGN_STORE_DELTA_H_
