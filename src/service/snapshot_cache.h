// SnapshotCache: the daemon's LRU of resident graphs.
//
// Entries are keyed by content fingerprint (store::GraphFingerprint), so
// two paths holding byte-different files with the same graph content
// share one resident copy, and a rebuilt/replaced file under the same
// path is never served stale. A path index (path -> fingerprint,
// validated against the file's current size and mtime) makes warm
// lookups stat()-cheap: the graph itself is only read on a miss.
//
// An entry owns its bytes (SnapshotRead::kOwned, checksums verified): it
// outlives the request that loaded it and is shared with every client
// whose file has its fingerprint, so it must not depend on that file.
//
// Capacity is bounded in *resident bytes* (LoadedGraphBytes per entry),
// not entry count. Eviction is strict LRU and only detaches an entry
// from the cache — entries are shared_ptrs, and every in-flight request
// holds one (rebound request graphs additionally pin it as their array
// arena), so eviction never frees a graph mid-request; the bytes are
// simply no longer counted as cached.
//
// Thread-safe. Lookups and bookkeeping run under one mutex; file loading
// runs outside it, so concurrent misses on different graphs load in
// parallel. Two concurrent misses on the same content both load; the
// loser adopts the winner's entry and drops its own copy (counted in
// stats().duplicate_loads).

#ifndef RDFALIGN_SERVICE_SNAPSHOT_CACHE_H_
#define RDFALIGN_SERVICE_SNAPSHOT_CACHE_H_

#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "service/graph_source.h"

namespace rdfalign::service {

struct SnapshotCacheOptions {
  /// Eviction threshold over the sum of cached entries' resident bytes.
  /// A single graph larger than the capacity is still served (pinned by
  /// the request) but is evicted again immediately.
  uint64_t capacity_bytes = uint64_t{1} << 30;
};

/// Counters; a consistent snapshot is returned by stats().
struct SnapshotCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;          ///< loads performed (includes duplicates)
  uint64_t evictions = 0;
  uint64_t duplicate_loads = 0; ///< concurrent same-content miss races
  uint64_t entries = 0;
  uint64_t resident_bytes = 0;
  uint64_t capacity_bytes = 0;
};

/// Per-entry observability (the `cache stats` verb and the tests).
struct SnapshotCacheEntryInfo {
  uint64_t fingerprint = 0;
  uint64_t resident_bytes = 0;
  /// Outstanding references beyond the cache's own (in-flight requests
  /// or rebound graphs still pinning the entry).
  uint64_t external_refs = 0;
  std::string path;  ///< the path that first loaded the entry
  uint64_t nodes = 0;
  uint64_t triples = 0;
};

class SnapshotCache : public GraphSource {
 public:
  explicit SnapshotCache(const SnapshotCacheOptions& options = {});

  /// GraphSource: cache-through load. `need_fingerprint` is ignored —
  /// the fingerprint is the cache key and is always present.
  Result<AcquiredGraph> Acquire(const std::string& path,
                                const CommonOptions& common,
                                bool need_fingerprint) override;

  SnapshotCache* cache() override { return this; }

  SnapshotCacheStats stats() const;

  /// Entries in most-recently-used-first order.
  std::vector<SnapshotCacheEntryInfo> entries() const;

  /// Drops every entry (in-flight references keep their graphs alive).
  void Clear();

 private:
  struct Entry {
    LoadedGraphRef loaded;
    std::string first_path;
    std::list<uint64_t>::iterator lru_it;  // position in lru_
  };
  struct PathKey {
    uint64_t file_size = 0;
    int64_t mtime_ns = 0;
    uint64_t fingerprint = 0;
  };

  /// Evicts LRU entries until resident_bytes_ <= capacity. Lock held.
  void EvictToCapacityLocked();

  const SnapshotCacheOptions options_;

  mutable std::mutex mu_;
  std::list<uint64_t> lru_;  ///< fingerprints, most recent first
  std::unordered_map<uint64_t, Entry> by_fingerprint_;
  std::unordered_map<std::string, PathKey> by_path_;
  uint64_t resident_bytes_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
  uint64_t duplicate_loads_ = 0;
};

}  // namespace rdfalign::service

#endif  // RDFALIGN_SERVICE_SNAPSHOT_CACHE_H_
