#include "util/thread_pool.h"

#include <cassert>
#include <limits>

namespace rdfalign {
namespace {

// Workers are persistent; this bounds runaway --threads requests, not
// parallelism (extra lanes beyond the worker count still make progress —
// their chunk ranges get stolen).
constexpr size_t kMaxWorkers = 256;

constexpr size_t kNoLane = std::numeric_limits<size_t>::max();

constexpr uint64_t PackRange(size_t begin, size_t end) {
  return (static_cast<uint64_t>(begin) << 32) | static_cast<uint64_t>(end);
}
constexpr size_t RangeBegin(uint64_t r) { return static_cast<size_t>(r >> 32); }
constexpr size_t RangeEnd(uint64_t r) {
  return static_cast<size_t>(r & 0xffffffffu);
}

// True on pool workers always, and on a caller thread while it is inside
// Run — a nested Run must execute inline rather than wait for the pool.
thread_local bool tls_in_parallel_region = false;

// Serializes parallel jobs: one Run drives the pool at a time; a
// concurrent Run from another user thread degrades to inline execution.
std::mutex g_run_mutex;

}  // namespace

size_t ResolveThreads(size_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

size_t EffectiveLanes(size_t threads) {
  return std::min(ResolveThreads(threads), ResolveThreads(0));
}

ThreadPool& ThreadPool::Instance() {
  static ThreadPool pool;
  return pool;
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

size_t ThreadPool::WorkersSpawned() const {
  std::lock_guard<std::mutex> lk(mu_);
  return workers_.size();
}

bool ThreadPool::InParallelRegion() { return tls_in_parallel_region; }

void ThreadPool::EnsureWorkersLocked(size_t target) {
  target = std::min(target, kMaxWorkers);
  while (workers_.size() < target) {
    workers_.emplace_back(&ThreadPool::WorkerLoop, this);
  }
}

void ThreadPool::Run(size_t num_chunks, size_t threads,
                     const std::function<void(size_t)>& body) {
  if (num_chunks == 0) return;
  const size_t lanes = std::min(threads == 0 ? 1 : threads, num_chunks);
  assert(num_chunks < (size_t{1} << 32));
  std::unique_lock<std::mutex> run_lock(g_run_mutex, std::defer_lock);
  if (lanes <= 1 || tls_in_parallel_region || !run_lock.try_lock()) {
    for (size_t c = 0; c < num_chunks; ++c) body(c);
    return;
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    EnsureWorkersLocked(lanes - 1);
    if (lane_capacity_ < lanes) {
      // Safe to reallocate: no job is active, so no worker touches lanes_.
      lanes_ = std::make_unique<std::atomic<uint64_t>[]>(lanes);
      lane_capacity_ = lanes;
    }
    for (size_t l = 0; l < lanes; ++l) {
      lanes_[l].store(PackRange(ChunkBound(num_chunks, lanes, l),
                                ChunkBound(num_chunks, lanes, l + 1)),
                      std::memory_order_relaxed);
    }
    next_lane_.store(1, std::memory_order_relaxed);
    job_body_ = &body;
    job_lanes_ = lanes;
    ++job_generation_;
    job_active_ = true;
  }
  work_cv_.notify_all();
  tls_in_parallel_region = true;
  WorkChunks(0, lanes, body);
  tls_in_parallel_region = false;
  std::unique_lock<std::mutex> lk(mu_);
  done_cv_.wait(lk, [&] { return active_workers_ == 0; });
  job_active_ = false;
  job_body_ = nullptr;
}

void ThreadPool::WorkerLoop() {
  tls_in_parallel_region = true;
  uint64_t seen_generation = 0;
  std::unique_lock<std::mutex> lk(mu_);
  while (true) {
    work_cv_.wait(lk, [&] {
      return shutdown_ || (job_active_ && job_generation_ != seen_generation);
    });
    if (shutdown_) return;
    seen_generation = job_generation_;
    const std::function<void(size_t)>* body = job_body_;
    const size_t lanes = job_lanes_;
    ++active_workers_;
    lk.unlock();
    const size_t lane = next_lane_.fetch_add(1, std::memory_order_relaxed);
    WorkChunks(lane < lanes ? lane : kNoLane, lanes, *body);
    lk.lock();
    if (--active_workers_ == 0) done_cv_.notify_all();
  }
}

void ThreadPool::WorkChunks(size_t my_lane, size_t num_lanes,
                            const std::function<void(size_t)>& body) {
  if (my_lane != kNoLane) {
    // Drain the own lane front-to-back.
    std::atomic<uint64_t>& lane = lanes_[my_lane];
    uint64_t r = lane.load(std::memory_order_acquire);
    while (RangeBegin(r) < RangeEnd(r)) {
      const size_t chunk = RangeBegin(r);
      if (lane.compare_exchange_weak(r, PackRange(chunk + 1, RangeEnd(r)),
                                     std::memory_order_acq_rel)) {
        body(chunk);
        r = lane.load(std::memory_order_acquire);
      }
    }
  }
  // Steal single chunks from the back of the fullest remaining lane.
  while (true) {
    size_t victim = kNoLane;
    size_t victim_left = 0;
    for (size_t l = 0; l < num_lanes; ++l) {
      const uint64_t r = lanes_[l].load(std::memory_order_acquire);
      const size_t left =
          RangeEnd(r) > RangeBegin(r) ? RangeEnd(r) - RangeBegin(r) : 0;
      if (left > victim_left) {
        victim = l;
        victim_left = left;
      }
    }
    if (victim == kNoLane) return;
    std::atomic<uint64_t>& lane = lanes_[victim];
    uint64_t r = lane.load(std::memory_order_acquire);
    if (RangeBegin(r) >= RangeEnd(r)) continue;  // lost the race, rescan
    const size_t chunk = RangeEnd(r) - 1;
    if (lane.compare_exchange_weak(r, PackRange(RangeBegin(r), chunk),
                                   std::memory_order_acq_rel)) {
      body(chunk);
    }
  }
}

}  // namespace rdfalign
