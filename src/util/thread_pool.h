// Fixed-size thread pool with a single shared FIFO queue, driven by one
// chunked fork-join: ParallelFor. The pool deliberately has no per-worker
// deques and one scheduling policy: load balance comes from how
// ParallelFor carves an index range into contiguous chunks that workers
// claim dynamically, not from migrating queued tasks between workers.
// Call sites choose only their grain (a named constant next to the call)
// and a region label. Used by the run-time offer pipeline
// (ProductSynthesizer) and by every offline stage that wants
// deterministic fork-join parallelism.
//
// History note (why per-item tasks failed): an earlier revision submitted
// work at a much finer granularity — up to one closure per item on some
// paths. At the pipeline's per-item cost (~20–30µs for a stage body) the
// queue mutex, the std::function allocation, and the wake-up round trip
// dominated, and the thread sweep measured *negative* scaling
// (speedup_4_over_1 ≈ 0.8–0.9 on the seed bench world). ParallelFor now
// always hands out contiguous chunks sized by PlanChunks and submits at
// most one task per worker; there is no public per-task submission.
//
// Determinism contract: the pool itself never reorders results — callers
// obtain bit-identical output for any thread count *and any chunk plan*
// by writing into per-index slots (see ParallelFor) and merging
// sequentially, the same discipline classifier_matcher.cc uses for
// offline scoring. Chunk boundaries (grain, thread count, claim order)
// affect only which worker touches which slot, never a slot's content.

#ifndef PRODSYN_UTIL_THREAD_POOL_H_
#define PRODSYN_UTIL_THREAD_POOL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "src/util/cancellation.h"
#include "src/util/histogram.h"
#include "src/util/mutex.h"
#include "src/util/sched_stats.h"
#include "src/util/thread_annotations.h"

namespace prodsyn {

/// \brief The chunk layout a ParallelFor call will use; computed by
/// ThreadPool::PlanChunks and exposed for tests and bench reporting.
/// Chunks cover [0, n): chunk c is [c*grain, min(n, (c+1)*grain)).
struct ChunkPlan {
  size_t grain = 0;   ///< items per chunk (the last chunk may be smaller)
  size_t chunks = 0;  ///< number of chunks covering the range
  size_t tasks = 0;   ///< claim loops submitted; 0 = body runs inline
};

/// \brief A fixed-size pool of worker threads draining one shared FIFO
/// task queue, driven only through the fork-join ParallelFor.
///
/// Thread safety: ParallelFor may be called concurrently from any thread
/// that is not one of this pool's workers (a worker waiting on its own
/// pool can deadlock it). The queue state is PRODSYN_GUARDED_BY(mu_) and
/// the discipline is enforced by the clang-tsa build.
///
/// Shutdown: the destructor joins every worker. Every ParallelFor drains
/// its own tasks before returning, so no task is ever left queued. No
/// exceptions are thrown on any path (bodies are expected not to throw,
/// per the repo's no-exceptions convention).
class ThreadPool {
 public:
  /// \param threads number of workers; 0 = hardware default
  /// (HardwareThreads()).
  explicit ThreadPool(size_t threads = 0);

  /// \brief Joins every worker.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// \brief The pool for a fork-join over `items` units of work:
  /// `threads` workers (0 = HardwareThreads()) clamped to `items`, or
  /// null when that leaves at most one worker — ParallelFor then runs
  /// inline and the caller never pays for a pool. Report the resolved
  /// count as `pool ? pool->thread_count() : 1`.
  static std::unique_ptr<ThreadPool> ForItems(size_t threads, size_t items);

  /// \brief Number of worker threads (fixed for the pool's lifetime).
  size_t thread_count() const { return workers_.size(); }

  /// \brief std::thread::hardware_concurrency(), never less than 1.
  static size_t HardwareThreads();

  /// \brief The chunk layout ParallelFor(pool, label, n, grain, ...) uses
  /// on a pool with `threads` workers. Pure function; exposed so tests can
  /// pin the grain heuristic.
  ///
  /// Layout rules: n == 0 plans nothing; threads <= 1 plans one inline
  /// chunk. Otherwise the target is ~8 chunks per worker, floored at
  /// `grain` items per chunk: grain' = max(grain, ceil(n / min(n,
  /// 8 * threads))) and chunks = ceil(n / grain'). A plan that collapses
  /// to a single chunk runs inline (tasks == 0); otherwise
  /// min(threads, chunks) claim loops race on a shared chunk cursor, so a
  /// worker stuck on a heavy chunk does not serialize the rest.
  static ChunkPlan PlanChunks(size_t n, size_t threads, size_t grain);

  /// \brief Runs `body(begin, end)` over contiguous chunks of [0, n) and
  /// returns once every chunk has finished. The one entry point of the
  /// pool.
  ///
  /// A null `pool` runs `body(0, n)` once on the calling thread and
  /// nothing else — no clock read, no lock, no allocation; `token` is
  /// then left to the body. With a pool, the chunks follow PlanChunks
  /// and are claimed by the workers; the calling thread only waits (it
  /// does not steal work), so this must not be invoked from a worker
  /// thread. A single-chunk plan runs inline on the caller. n == 0 never
  /// calls `body`.
  ///
  /// `label` is the region name for scheduler accounting (sched_stats.h)
  /// and must be a string literal (stored by pointer, like trace span
  /// names; null folds into "parallel_for"). `grain` is the call site's
  /// floor on items per chunk: raise it when the body is so cheap that
  /// per-chunk overhead would dominate, or when each chunk pays a fixed
  /// setup cost worth amortizing.
  ///
  /// Chunk boundaries depend on the thread count and the grain, so
  /// `body` must write only to per-index state (e.g. slot i of a
  /// pre-sized vector) for the overall result to be
  /// thread-count-invariant. Each chunk a pool executes is wrapped in a
  /// "pool.chunk" trace span (see docs/OBSERVABILITY.md).
  ///
  /// Cooperative cancellation: when `token` is non-null and a pool runs
  /// the loop, chunks that have not started when the token reports
  /// cancelled are skipped wholesale (the claim loops stop claiming); the
  /// call still returns only after in-flight chunks finish — the latch
  /// always drains. For prompt cancellation *within* a chunk, `body`
  /// should also poll the token per index. A null token never cancels.
  template <typename Body>
  static void ParallelFor(ThreadPool* pool, const char* label, size_t n,
                          size_t grain, const Body& body,
                          const CancellationToken* token = nullptr) {
    if (n == 0) return;
    if (pool == nullptr) {
      body(size_t{0}, n);
      return;
    }
    pool->Run(label, n, grain, body, token);
  }

  /// \brief Whether this pool records scheduler accounting. Sampled from
  /// SchedulerStats::enabled() ONCE at construction — flipping the global
  /// flag later does not affect an existing pool (the benches and tests
  /// enable accounting before building their pools). When false, the
  /// only accounting cost anywhere is a non-atomic bool test.
  bool sched_stats_enabled() const { return stats_enabled_; }

  /// \brief Attributes `ns` of sequential merge wall to region `label`
  /// (creating the region on first use), so the label's Amdahl serial
  /// fraction covers the fork-join's mandatory sequential tail. Use via
  /// ScopedMergeTimer. No-op when accounting is off.
  void NoteRegionMergeNanos(const char* label, uint64_t ns)
      PRODSYN_EXCLUDES(sched_mu_);

  /// \brief Point-in-time copy of the scheduler accounting (empty when
  /// accounting is off). Consistent once the pool is quiescent — the
  /// same contract as StageMetrics. Publish with PublishSchedStats.
  PoolSchedSnapshot SchedSnapshot() const PRODSYN_EXCLUDES(sched_mu_);

 private:
  /// One worker's accounting slot: single-writer relaxed atomics (only
  /// worker `i` writes slot `i`; SchedSnapshot reads after quiescence) —
  /// the §atomics exemption of docs/STATIC_ANALYSIS.md. Cache-line
  /// aligned so neighbouring workers never false-share.
  struct alignas(64) WorkerSlot {
    std::atomic<uint64_t> busy_ns{0};
    std::atomic<uint64_t> idle_ns{0};
    std::atomic<uint64_t> queue_wait_ns{0};
    std::atomic<uint64_t> tasks{0};
  };

  /// A queued task plus its enqueue timestamp (0 when accounting is off;
  /// the timestamp feeds queue_wait_ns at dequeue time).
  struct QueuedTask {
    std::function<void()> fn;
    uint64_t enqueue_ns = 0;
  };

  /// The pool half of ParallelFor: plans the chunks, submits the claim
  /// loops and waits on a private latch.
  void Run(const char* label, size_t n, size_t grain,
           const std::function<void(size_t begin, size_t end)>& body,
           const CancellationToken* token);

  /// Enqueues `task` for some worker. The queue is unbounded.
  void Submit(std::function<void()> task) PRODSYN_EXCLUDES(mu_);

  void WorkerLoop(size_t worker_index);

  /// Folds one finished ParallelFor invocation into the label's
  /// aggregate and records its load-balance factor.
  void FoldRegion(const char* label, uint64_t executed_chunks,
                  uint64_t wall_ns, uint64_t chunk_sum_ns,
                  uint64_t chunk_min_ns, uint64_t chunk_max_ns,
                  uint64_t claim_attempts) PRODSYN_EXCLUDES(sched_mu_);

  /// True when a worker should keep sleeping: no task queued, no shutdown.
  bool IdleLocked() const PRODSYN_REQUIRES(mu_) {
    return !stop_ && queue_.empty();
  }

  mutable Mutex mu_;
  CondVar work_cv_;  // signals workers: task or shutdown
  std::deque<QueuedTask> queue_ PRODSYN_GUARDED_BY(mu_);
  bool stop_ PRODSYN_GUARDED_BY(mu_) = false;

  // Scheduler accounting (sched_stats.h). stats_enabled_ is fixed at
  // construction; the worker slots are written before the workers start
  // and freed after they join.
  const bool stats_enabled_;
  std::unique_ptr<WorkerSlot[]> worker_slots_;  // one per worker
  mutable Mutex sched_mu_;
  std::vector<PoolRegionStats> regions_ PRODSYN_GUARDED_BY(sched_mu_);
  // One observation per multi-chunk region invocation; relaxed atomics
  // inside, so recorded outside sched_mu_ without a TSA capability.
  LogHistogram imbalance_permille_;

  // Written only by the constructor, joined by the destructor; all other
  // accesses are reads of the fixed size. Not mutex-guarded by design.
  std::vector<std::thread> workers_;
};

}  // namespace prodsyn

#endif  // PRODSYN_UTIL_THREAD_POOL_H_
