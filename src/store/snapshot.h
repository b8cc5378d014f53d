// Binary snapshot store: zero-parse persistence for TripleGraphs.
//
// WriteSnapshot serializes a graph — dictionary, labels, triple list, and
// both CSR indexes — into the versioned little-endian format of
// store/format.h. LoadSnapshot reads it back without any text parsing,
// sorting, or index construction: the array sections are referenced in
// place (from a buffered read of the whole file, or from an mmap when
// SnapshotLoadOptions::use_mmap is set) and pinned into the graph via
// SharedArray; term bytes are interned into the target dictionary as views
// (Dictionary::InternPinned), so nothing is copied but the node-label
// column.
//
// Loading into a non-empty dictionary (the alignment workflow: two
// snapshots, one shared dictionary) transparently remaps the snapshot's
// term ids onto the shared id space.

#ifndef RDFALIGN_STORE_SNAPSHOT_H_
#define RDFALIGN_STORE_SNAPSHOT_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "rdf/graph.h"
#include "store/format.h"
#include "util/result.h"

namespace rdfalign::store {

/// Serializes `g` to `path`, overwriting any existing file. Only the
/// dictionary terms actually referenced by the graph's labels are written
/// (a shared dictionary may hold terms of other graphs), renumbered
/// densely in lexicographic order and front-coded (format version 2; see
/// store/front_coding.h and docs/store.md). Saving a freshly loaded
/// snapshot reproduces it byte for byte.
///
/// The store persists *triple graphs* (§2.1), not only RDF graphs: label
/// uniqueness and the RDF positional constraints are intentionally not
/// part of the format or of load-time validation, because combined
/// two-version graphs (which violate uniqueness by design) are valid
/// snapshot subjects. Callers needing RDF-graph guarantees should obtain
/// the graph through a validating front end (parser / GraphBuilder).
Status WriteSnapshot(const TripleGraph& g, const std::string& path);

/// Serializes `g` into an already-open binary stream (the archive store
/// embeds snapshot images this way). `name` labels error messages.
Status WriteSnapshotToStream(const TripleGraph& g, std::ostream& out,
                             const std::string& name);

struct SnapshotLoadOptions {
  /// Map the file instead of reading it into a buffer. The CSR arrays are
  /// then backed directly by the page cache with no up-front copy, and a
  /// warm cache makes repeated loads nearly free. The graph then depends
  /// on the file staying as it is: truncating it under a live graph
  /// faults the process. Loading is NOT lazy either way — checksum
  /// verification, structural validation and term interning read the
  /// whole file once.
  bool use_mmap = false;
};

/// Telemetry of a snapshot load.
struct SnapshotLoadStats {
  uint64_t file_bytes = 0;
  uint64_t terms_interned = 0;  ///< terms new to the target dictionary
  /// True when the snapshot's term ids mapped onto the dictionary
  /// unchanged (always the case for a fresh dictionary).
  bool identity_term_map = false;
};

/// Loads a snapshot into a TripleGraph, verifying every section checksum
/// (bit rot, torn writes) and the structure — offset monotonicity, id
/// ranges, CSR/triple consistency. `dict` is the target dictionary —
/// pass nullptr for a fresh one, or the shared dictionary of a graph
/// already loaded when the two will be aligned. On success the graph's
/// array storage references the load buffer / mapping (kept alive by the
/// graph itself).
Result<TripleGraph> LoadSnapshot(const std::string& path,
                                 std::shared_ptr<Dictionary> dict,
                                 const SnapshotLoadOptions& options = {},
                                 SnapshotLoadStats* stats = nullptr);

/// Loads a snapshot image already resident in memory (an archive section,
/// a network buffer). `pin` keeps [data, data+size) alive and is captured
/// by the returned graph for zero-copy adoption; `name` labels error
/// messages. All validation of the file-based loader runs.
Result<TripleGraph> LoadSnapshotFromMemory(
    std::shared_ptr<const void> pin, const unsigned char* data, uint64_t size,
    std::shared_ptr<Dictionary> dict, SnapshotLoadStats* stats = nullptr,
    const std::string& name = "<memory>");

/// Section metadata as reported by `rdfalign info`.
struct SnapshotSectionInfo {
  SectionId id;
  uint64_t offset = 0;
  uint64_t size = 0;
  uint64_t checksum = 0;
};

/// Header-level snapshot metadata (no payload is read).
struct SnapshotInfo {
  uint32_t version = 0;
  uint64_t num_nodes = 0;
  uint64_t num_triples = 0;
  uint64_t num_terms = 0;
  uint64_t file_size = 0;
  std::vector<SnapshotSectionInfo> sections;
};

/// Reads and validates the header and section table only (a few hundred
/// bytes) — the `rdfalign info` fast path.
Result<SnapshotInfo> ReadSnapshotInfo(const std::string& path);

/// Human-readable section name ("term_offsets", "triples", ...).
std::string_view SectionName(SectionId id);

/// True when `path` starts with the snapshot magic (used by the CLI to
/// distinguish snapshots from RDF text files).
bool LooksLikeSnapshot(const std::string& path);

}  // namespace rdfalign::store

#endif  // RDFALIGN_STORE_SNAPSHOT_H_
