// One process-wide work-stealing thread pool plus the deterministic
// chunking convention every parallel kernel in this codebase follows.
//
// Scheduling and determinism are kept strictly apart:
//
//   * PlanChunks/ChunkBound decompose [0, n) into contiguous chunks as a
//     pure function of (n, grain) — never of the thread count and never of
//     scheduling. Combining per-chunk results in ascending chunk order is
//     therefore bit-identical for every thread count, including 1.
//   * ThreadPool::Run only decides *which lane executes which chunk*
//     (contiguous lane ranges, idle lanes steal single chunks from the
//     back of busy lanes). Kernels must not let results depend on
//     execution order: write disjoint chunk-indexed slots, update shared
//     cells only through order-insensitive atomics (sums, ORs, flag
//     stores), and fold slots in chunk order afterwards.
//
// The pool is a lazy singleton. Workers are spawned on demand up to the
// requested lane count (so `--threads 8` exercises eight real lanes even
// on a single-core box, matching the per-call spawning it replaces) and
// persist for the life of the process — short incremental refinement
// rounds no longer pay a thread create/join per round. Re-entrant or
// concurrent Run calls degrade to inline serial execution of the caller's
// chunks; they never deadlock and never change results.

#ifndef RDFALIGN_UTIL_THREAD_POOL_H_
#define RDFALIGN_UTIL_THREAD_POOL_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace rdfalign {

/// Resolves a requested thread count: 0 means "auto" (the hardware
/// concurrency, at least 1); any other value is taken literally.
size_t ResolveThreads(size_t requested);

/// Lanes that can make real progress: min(requested, hardware). Chunk
/// plans never see the lane count, so kernels gating their parallel
/// layout on this produce the same bytes — it only spares a single-core
/// box the scheduling and scratch cost of lanes that cannot help. Raw
/// ThreadPool::Run is deliberately not clamped (the pool tests field
/// every requested lane); every kernel reaches the pool through
/// ParallelChunks or ParallelSort, which clamp.
size_t EffectiveLanes(size_t threads);

/// The process-wide pool. All parallel kernels share it via Instance().
class ThreadPool {
 public:
  /// The shared instance (created on first use, workers spawned lazily).
  static ThreadPool& Instance();

  /// Executes body(chunk) exactly once for every chunk in [0, num_chunks),
  /// on up to `threads` lanes including the calling thread, and returns
  /// only when every invocation has returned. `body` must not throw.
  /// Chunk execution order is unspecified — see the file comment for the
  /// determinism contract kernels must follow. Nested or concurrent calls
  /// run the caller's chunks inline on the calling thread.
  void Run(size_t num_chunks, size_t threads,
           const std::function<void(size_t chunk)>& body);

  /// Workers spawned so far (telemetry/tests; grows on demand).
  size_t WorkersSpawned() const;

  /// True on a pool worker thread, or inside a Run on the calling thread.
  static bool InParallelRegion();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

 private:
  ThreadPool() = default;
  ~ThreadPool();

  void EnsureWorkersLocked(size_t target);
  void WorkerLoop();
  // Drains lane `my_lane` front-to-back, then steals single chunks from
  // the back of the fullest remaining lane until no work is left.
  void WorkChunks(size_t my_lane, size_t num_lanes,
                  const std::function<void(size_t)>& body);

  // Lane ranges packed as (begin << 32) | end over chunk indexes; claimed
  // front (owner) and back (thieves) by compare-exchange.
  std::unique_ptr<std::atomic<uint64_t>[]> lanes_;
  size_t lane_capacity_ = 0;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> workers_;
  const std::function<void(size_t)>* job_body_ = nullptr;
  size_t job_lanes_ = 0;
  uint64_t job_generation_ = 0;
  bool job_active_ = false;
  bool shutdown_ = false;
  size_t active_workers_ = 0;
  std::atomic<size_t> next_lane_{0};
};

/// Hard cap on chunks per plan, so per-chunk dispatch overhead stays
/// negligible next to `grain` elements of real work.
inline constexpr size_t kMaxPlannedChunks = 1u << 14;

/// Number of chunks covering [0, n) with at least `grain` elements each
/// (except possibly when n < grain). Depends only on (n, grain).
inline size_t PlanChunks(size_t n, size_t grain) {
  if (n == 0) return 0;
  if (grain == 0) grain = 1;
  return std::min((n + grain - 1) / grain, kMaxPlannedChunks);
}

/// Boundary `c` of the balanced split of [0, n) into `chunks` chunks:
/// chunk c covers [ChunkBound(n, chunks, c), ChunkBound(n, chunks, c+1)).
inline size_t ChunkBound(size_t n, size_t chunks, size_t c) {
  return (n / chunks) * c + std::min(c, n % chunks);
}

/// Runs body(chunk, begin, end) over the deterministic decomposition of
/// [0, n). This is the one place that decides whether a kernel runs on
/// the pool: a plan with a single chunk, or one lane, runs inline on the
/// caller in ascending chunk order. A kernel therefore writes one chunked
/// body; it needs no serial twin and no size floor of its own.
template <typename Body>
void ParallelChunks(size_t n, size_t threads, size_t grain, const Body& body) {
  const size_t chunks = PlanChunks(n, grain);
  // Lanes beyond the hardware only add scheduling overhead to a chunked
  // loop; the decomposition (and thus the result) never depends on the
  // lane count, so the clamp is invisible except in wall clock. Raw
  // ThreadPool::Run stays unclamped for callers that want real lanes.
  const size_t lanes = chunks <= 1 ? 1 : EffectiveLanes(threads);
  if (lanes <= 1) {
    for (size_t c = 0; c < chunks; ++c) {
      body(c, ChunkBound(n, chunks, c), ChunkBound(n, chunks, c + 1));
    }
    return;
  }
  ThreadPool::Instance().Run(chunks, lanes, [&](size_t c) {
    body(c, ChunkBound(n, chunks, c), ChunkBound(n, chunks, c + 1));
  });
}

/// Chunk-ordered reduction: map(chunk, begin, end) fills one slot per
/// chunk through ParallelChunks, then fold(acc, slot) combines the slots in
/// ascending chunk order — the fixed-order convention that makes the
/// result independent of the thread count even for non-commutative folds.
template <typename T, typename Map, typename Fold>
T ChunkedReduce(size_t n, size_t threads, size_t grain, T init,
                const Map& map, const Fold& fold) {
  std::vector<T> slots(PlanChunks(n, grain));
  ParallelChunks(n, threads, grain, [&](size_t c, size_t begin, size_t end) {
    slots[c] = map(c, begin, end);
  });
  T acc = std::move(init);
  for (T& slot : slots) fold(acc, std::move(slot));
  return acc;
}

/// Minimum size below which ParallelSort falls back to std::sort.
inline constexpr size_t kParallelSortGrain = size_t{1} << 14;

/// Sorts `v` with `less`, bit-identical to std::sort for any thread count
/// provided `less` is a total order on the element *values* (ties only
/// between identical values) — true for the packed keys this codebase
/// sorts. Chunk-sorts on the pool, then pairwise-merges runs in rounds.
template <typename T, typename Less = std::less<T>>
void ParallelSort(std::vector<T>& v, size_t threads, Less less = Less{}) {
  const size_t n = v.size();
  size_t chunks = PlanChunks(n, kParallelSortGrain);
  // Unlike the chunked loops, extra sort lanes add *work* (each merge
  // round copies the whole range), so lanes beyond the hardware can only
  // lose. The clamp cannot change bytes: the output is the unique sorted
  // permutation for any decomposition.
  threads = EffectiveLanes(threads);
  if (threads <= 1 || chunks <= 1) {
    std::sort(v.begin(), v.end(), less);
    return;
  }
  // Sorting is the one kernel whose run boundaries *may* depend on the
  // thread count: the fully sorted output of a total order is the unique
  // sorted permutation of the values, so any decomposition converges to
  // the same bytes. Fewer, larger runs mean fewer merge rounds.
  chunks = std::min(chunks, std::max<size_t>(2, 2 * threads));
  std::vector<size_t> bounds(chunks + 1);
  for (size_t c = 0; c <= chunks; ++c) bounds[c] = ChunkBound(n, chunks, c);
  ThreadPool& pool = ThreadPool::Instance();
  pool.Run(chunks, threads, [&](size_t c) {
    std::sort(v.begin() + bounds[c], v.begin() + bounds[c + 1], less);
  });
  std::vector<T> tmp(n);
  std::vector<T>* src = &v;
  std::vector<T>* dst = &tmp;
  while (bounds.size() > 2) {
    const size_t runs = bounds.size() - 1;
    const size_t pairs = runs / 2;
    const size_t jobs = pairs + runs % 2;
    std::vector<size_t> merged(jobs + 1);
    merged[0] = 0;
    for (size_t p = 0; p < pairs; ++p) merged[p + 1] = bounds[2 * p + 2];
    if (runs % 2 != 0) merged[jobs] = bounds[runs];
    pool.Run(jobs, threads, [&](size_t p) {
      if (p < pairs) {
        std::merge(src->begin() + bounds[2 * p],
                   src->begin() + bounds[2 * p + 1],
                   src->begin() + bounds[2 * p + 1],
                   src->begin() + bounds[2 * p + 2],
                   dst->begin() + bounds[2 * p], less);
      } else {
        std::copy(src->begin() + bounds[2 * p], src->begin() + bounds[runs],
                  dst->begin() + bounds[2 * p]);
      }
    });
    std::swap(src, dst);
    bounds = std::move(merged);
  }
  if (src != &v) v.swap(tmp);
}

}  // namespace rdfalign

#endif  // RDFALIGN_UTIL_THREAD_POOL_H_
