#include "service/snapshot_cache.h"

#include <sys/stat.h>

#include <utility>

#include "util/timer.h"

namespace rdfalign::service {

namespace {

Status StatFile(const std::string& path, uint64_t* size, int64_t* mtime_ns) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) {
    return Status::NotFound("cannot stat: " + path);
  }
  *size = static_cast<uint64_t>(st.st_size);
  *mtime_ns = static_cast<int64_t>(st.st_mtim.tv_sec) * 1000000000 +
              st.st_mtim.tv_nsec;
  return Status::OK();
}

}  // namespace

SnapshotCache::SnapshotCache(const SnapshotCacheOptions& options)
    : options_(options) {}

Result<AcquiredGraph> SnapshotCache::Acquire(const std::string& path,
                                             const CommonOptions& common,
                                             bool /*need_fingerprint*/) {
  WallTimer timer;
  uint64_t file_size = 0;
  int64_t mtime_ns = 0;
  RDFALIGN_RETURN_IF_ERROR(StatFile(path, &file_size, &mtime_ns));

  {
    std::lock_guard<std::mutex> lock(mu_);
    auto pit = by_path_.find(path);
    if (pit != by_path_.end() && pit->second.file_size == file_size &&
        pit->second.mtime_ns == mtime_ns) {
      auto eit = by_fingerprint_.find(pit->second.fingerprint);
      if (eit != by_fingerprint_.end()) {
        lru_.erase(eit->second.lru_it);
        lru_.push_front(eit->first);
        eit->second.lru_it = lru_.begin();
        ++hits_;
        AcquiredGraph out;
        out.loaded = eit->second.loaded;
        out.cache_hit = true;
        out.acquire_ms = timer.ElapsedMillis();
        return out;
      }
      // Path index pointed at an evicted entry; fall through to load.
    }
  }

  // Miss: load outside the lock (the fingerprint is always computed —
  // it is the key) into bytes the entry owns.
  RDFALIGN_ASSIGN_OR_RETURN(
      LoadedGraphRef loaded,
      LoadGraphFile(path, common, SnapshotRead::kOwned, true));

  AcquiredGraph out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++misses_;
    by_path_[path] =
        PathKey{file_size, mtime_ns, loaded->fingerprint};
    auto eit = by_fingerprint_.find(loaded->fingerprint);
    if (eit != by_fingerprint_.end()) {
      // Same content already resident (another path, or a concurrent
      // load of the same path won the race): adopt it, drop our copy.
      ++duplicate_loads_;
      lru_.erase(eit->second.lru_it);
      lru_.push_front(eit->first);
      eit->second.lru_it = lru_.begin();
      out.loaded = eit->second.loaded;
    } else {
      lru_.push_front(loaded->fingerprint);
      Entry entry;
      entry.loaded = loaded;
      entry.first_path = path;
      entry.lru_it = lru_.begin();
      resident_bytes_ += loaded->resident_bytes;
      by_fingerprint_.emplace(loaded->fingerprint, std::move(entry));
      EvictToCapacityLocked();
      out.loaded = std::move(loaded);
    }
  }
  out.cache_hit = false;
  out.acquire_ms = timer.ElapsedMillis();
  return out;
}

void SnapshotCache::EvictToCapacityLocked() {
  while (resident_bytes_ > options_.capacity_bytes && !lru_.empty()) {
    const uint64_t victim = lru_.back();
    auto it = by_fingerprint_.find(victim);
    resident_bytes_ -= it->second.loaded->resident_bytes;
    by_fingerprint_.erase(it);
    lru_.pop_back();
    ++evictions_;
  }
}

SnapshotCacheStats SnapshotCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  SnapshotCacheStats s;
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  s.duplicate_loads = duplicate_loads_;
  s.entries = by_fingerprint_.size();
  s.resident_bytes = resident_bytes_;
  s.capacity_bytes = options_.capacity_bytes;
  return s;
}

std::vector<SnapshotCacheEntryInfo> SnapshotCache::entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SnapshotCacheEntryInfo> out;
  out.reserve(by_fingerprint_.size());
  for (uint64_t fp : lru_) {
    const Entry& e = by_fingerprint_.at(fp);
    SnapshotCacheEntryInfo info;
    info.fingerprint = fp;
    info.resident_bytes = e.loaded->resident_bytes;
    // One reference is the cache's own; anything beyond it is an
    // in-flight request or a rebound graph pinning the entry.
    const long uses = e.loaded.use_count();
    info.external_refs = uses > 1 ? static_cast<uint64_t>(uses - 1) : 0;
    info.path = e.first_path;
    info.nodes = e.loaded->graph.NumNodes();
    info.triples = e.loaded->graph.NumEdges();
    out.push_back(std::move(info));
  }
  return out;
}

void SnapshotCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  evictions_ += by_fingerprint_.size();
  by_fingerprint_.clear();
  by_path_.clear();
  lru_.clear();
  resident_bytes_ = 0;
}

}  // namespace rdfalign::service
