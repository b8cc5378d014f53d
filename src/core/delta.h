// Alignment-driven deltas: the change description between two versions.
//
// "Constructing an alignment between two graphs is virtually equivalent to
// constructing their delta" (§1, Related Work). Given a partition-based
// alignment, every edge of either side either has an aligned counterpart on
// the other side (unchanged up to renaming) or is an insertion/deletion.
// URI nodes aligned across different labels are reported as renames — the
// ontology changes the hybrid method is designed to find.

#ifndef RDFALIGN_CORE_DELTA_H_
#define RDFALIGN_CORE_DELTA_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/partition.h"
#include "rdf/merge.h"

namespace rdfalign {

/// A rename discovered by the alignment: one entity, two URIs.
struct UriRename {
  NodeId source;           ///< combined id in G1
  NodeId target;           ///< combined id in G2
  std::string source_uri;
  std::string target_uri;
};

/// The triple-level difference between two aligned versions.
struct RdfDelta {
  /// Triples of G1 without an aligned counterpart in G2 (combined ids).
  std::vector<Triple> deleted;
  /// Triples of G2 without an aligned counterpart in G1 (combined ids).
  std::vector<Triple> added;
  /// Edges matched across versions (counted once per matched pair).
  size_t unchanged = 0;
  /// Aligned URI pairs whose labels differ.
  std::vector<UriRename> renamed_uris;
};

/// Computes the delta induced by a partition-based alignment. Edges are
/// matched by color triple with multiplicity (min of the per-side counts).
/// `threads` > 1 builds and sorts the per-side key arrays on the shared
/// pool; the emitted delta is bit-identical for any thread count (the
/// greedy first-come matching runs on the same sorted arrays either way).
RdfDelta ComputeDelta(const CombinedGraph& cg, const Partition& p,
                      size_t threads = 1);

/// An injective node correspondence between two versions: for every node of
/// the *next* (target) version, the base (source) node it continues, or
/// kInvalidNode when it has none. No base node is the image of two next
/// nodes. This is the entity-level remap the binary delta store
/// (src/store/delta.h) serializes; an all-invalid map is always valid (the
/// delta then degenerates to a full remove + add).
struct VersionNodeMap {
  std::vector<NodeId> next_to_base;  ///< size = next version's node count

  size_t MappedCount() const;
};

/// Derives a VersionNodeMap from a partition-based alignment of a combined
/// graph: each class containing nodes of both sides pairs its smallest
/// source node with its smallest target node (deterministic; remaining
/// same-class members stay unmapped so the map is injective).
VersionNodeMap NodeMapFromPartition(const CombinedGraph& cg,
                                    const Partition& p);

/// Derives a VersionNodeMap from two per-node entity-id columns (the
/// VersionArchive chaining): the smallest base node of each entity pairs
/// with the smallest next node carrying the same entity id.
VersionNodeMap NodeMapFromEntities(const std::vector<uint64_t>& base_entities,
                                   const std::vector<uint64_t>& next_entities);

/// Renders a human-readable summary ("+N -M ~K, R renames").
std::string DeltaSummary(const RdfDelta& delta);

}  // namespace rdfalign

#endif  // RDFALIGN_CORE_DELTA_H_
