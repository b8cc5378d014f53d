// GraphSource: how a verb obtains a loaded graph for a path.
//
// The verb implementations (service/verbs.h) never open files themselves —
// they Acquire() graphs from a GraphSource, which is either
//
//   * DirectGraphSource — load per call, the one-shot CLI behavior, or
//   * SnapshotCache (service/snapshot_cache.h) — the daemon's LRU of
//     resident graphs keyed by content fingerprint.
//
// Every acquired graph carries its own private Dictionary (a cached graph
// is shared by many concurrent requests and a Dictionary is not
// thread-safe to grow). Verbs that need several graphs in one label space
// — align, diff, patch, archive, stream — rebind each acquired graph into
// a request-local shared dictionary (AcquireRebound, over RebindGraph):
// the triple list and all four CSR arrays are adopted as zero-copy pinned
// views (the pin keeps the cache entry alive even if it is evicted
// mid-request) and only the label column is rewritten. Rebinding interns terms in ascending
// source-id order, which makes the resulting LexId assignment — and hence
// every downstream report — byte-identical to the historical
// load-both-into-one-dictionary CLI path.

#ifndef RDFALIGN_SERVICE_GRAPH_SOURCE_H_
#define RDFALIGN_SERVICE_GRAPH_SOURCE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "rdf/graph.h"
#include "service/flags.h"
#include "util/result.h"

namespace rdfalign::service {

class SnapshotCache;

/// A loaded, immutable graph plus the metadata the service layer tracks
/// about it. Thread-safe to share by const reference: nothing mutates a
/// LoadedGraph after construction.
struct LoadedGraph {
  TripleGraph graph;
  std::string kind;            ///< "snapshot" | "snapshot(mmap)" | "ntriples" | "turtle"
  uint64_t fingerprint = 0;    ///< store::GraphFingerprint; valid iff has_fingerprint
  bool has_fingerprint = false;
  uint64_t resident_bytes = 0; ///< LoadedGraphBytes estimate
};

using LoadedGraphRef = std::shared_ptr<const LoadedGraph>;

/// One Acquire outcome: the graph plus per-request provenance.
struct AcquiredGraph {
  LoadedGraphRef loaded;
  bool cache_hit = false;
  double acquire_ms = 0;  ///< wall time spent inside Acquire
};

/// Abstract provider of loaded graphs.
class GraphSource {
 public:
  virtual ~GraphSource() = default;

  /// Loads (or fetches) the graph at `path`, sniffing snapshot vs RDF
  /// text by magic / suffix. `common` supplies threads / mmap / checksum
  /// policy for an actual load. When `need_fingerprint` is set the
  /// returned LoadedGraph has its content fingerprint populated (a cache
  /// always has it; a direct load computes it on demand).
  virtual Result<AcquiredGraph> Acquire(const std::string& path,
                                        const CommonOptions& common,
                                        bool need_fingerprint) = 0;

  /// The snapshot cache backing this source, or nullptr (direct loads).
  virtual SnapshotCache* cache() { return nullptr; }
};

/// Loads fresh on every call — the one-shot CLI source.
class DirectGraphSource : public GraphSource {
 public:
  Result<AcquiredGraph> Acquire(const std::string& path,
                                const CommonOptions& common,
                                bool need_fingerprint) override;
};

/// Loads the graph at `path` into a fresh private dictionary, sniffing
/// snapshots (by magic), Turtle (suffix .ttl), and N-Triples (default).
/// Shared by DirectGraphSource and the cache's miss path.
Result<LoadedGraphRef> LoadGraphFile(const std::string& path,
                                     const CommonOptions& common,
                                     bool need_fingerprint);

/// Deterministic resident-memory estimate of a loaded graph (labels,
/// triple list, both CSR indexes, dictionary bytes and index overhead) —
/// the cache's byte-accounting unit, exposed so tests can predict
/// capacity behavior exactly.
uint64_t LoadedGraphBytes(const TripleGraph& g);

/// Rebinds `src`'s graph into `dict`: terms are interned (as pinned
/// views; `src` itself is pinned into `dict` as the arena) in ascending
/// source-LexId order, each with the hash its source dictionary cached,
/// the label column is rewritten, and the triple /
/// CSR arrays are adopted as zero-copy views kept alive by `src`. The
/// result is content-identical to the source graph and safe to use after
/// the source is evicted from any cache.
TripleGraph RebindGraph(const LoadedGraphRef& src,
                        const std::shared_ptr<Dictionary>& dict);

/// The verb step for a graph that joins a request's label space: acquires
/// `path` from `source`, counts the cache hit or miss into `*hits` or
/// `*misses`, and rebinds the graph into `dict`. When `kind` is non-null
/// it receives the loaded graph's kind.
Result<TripleGraph> AcquireRebound(GraphSource* source,
                                   const std::string& path,
                                   const CommonOptions& common,
                                   const std::shared_ptr<Dictionary>& dict,
                                   uint64_t* hits, uint64_t* misses,
                                   std::string* kind = nullptr);

}  // namespace rdfalign::service

#endif  // RDFALIGN_SERVICE_GRAPH_SOURCE_H_
