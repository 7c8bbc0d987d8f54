#include "src/util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <utility>

#include "src/util/fault.h"
#include "src/util/trace.h"

namespace prodsyn {

namespace {
// PlanChunks targets this many chunks per worker before the call site's
// grain floor kicks in: enough slack that one heavy chunk leaves ~7
// lighter ones for the other workers to absorb, few enough that
// per-chunk claim overhead (one relaxed fetch_add) stays invisible next
// to the body.
constexpr size_t kChunksPerThread = 8;

// The sanctioned raw-clock read for scheduler accounting — lint rule R5
// bans steady_clock::now() in accounting paths precisely so every read
// funnels through here. Accounting needs a *wall* clock: the CPU clock
// behind ScopedStageTimer cannot see idle or queue-wait time, which is
// the whole point of per-worker utilization.
uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now()  // lint: sched-clock
              .time_since_epoch())
          .count());
}

// Frame-local accumulator for one ParallelFor invocation's chunk
// timings. §atomics exemption (docs/STATIC_ANALYSIS.md): independent
// monotone accumulators (plus CAS min/max), folded into the pool's
// region aggregate only after the latch drains — the same lifetime
// argument as the claim cursor below.
struct RegionAccum {
  std::atomic<uint64_t> chunk_sum_ns{0};
  std::atomic<uint64_t> chunk_min_ns{UINT64_MAX};
  std::atomic<uint64_t> chunk_max_ns{0};
  std::atomic<uint64_t> executed_chunks{0};
  std::atomic<uint64_t> claim_attempts{0};
};

void RelaxedMin(std::atomic<uint64_t>* cell, uint64_t value) {
  uint64_t current = cell->load(std::memory_order_relaxed);
  while (value < current &&
         !cell->compare_exchange_weak(current, value,
                                      std::memory_order_relaxed)) {
  }
}

void RelaxedMax(std::atomic<uint64_t>* cell, uint64_t value) {
  uint64_t current = cell->load(std::memory_order_relaxed);
  while (value > current &&
         !cell->compare_exchange_weak(current, value,
                                      std::memory_order_relaxed)) {
  }
}

// Runs one chunk, timing it into `accum` when accounting is on
// (accum != nullptr). The timing wraps the same body the untimed path
// runs — accounting never alters what executes, only measures it.
void RunChunk(const std::function<void(size_t, size_t)>& body, size_t begin,
              size_t end, RegionAccum* accum) {
  if (accum == nullptr) {
    PRODSYN_TRACE_SPAN("pool.chunk");
    body(begin, end);
    return;
  }
  const uint64_t start = NowNanos();
  {
    PRODSYN_TRACE_SPAN("pool.chunk");
    body(begin, end);
  }
  const uint64_t elapsed = NowNanos() - start;
  accum->chunk_sum_ns.fetch_add(elapsed, std::memory_order_relaxed);
  accum->executed_chunks.fetch_add(1, std::memory_order_relaxed);
  RelaxedMin(&accum->chunk_min_ns, elapsed);
  RelaxedMax(&accum->chunk_max_ns, elapsed);
}

}  // namespace

size_t ThreadPool::HardwareThreads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

std::unique_ptr<ThreadPool> ThreadPool::ForItems(size_t threads,
                                                 size_t items) {
  if (threads == 0) threads = HardwareThreads();
  threads = std::min(threads, items);
  if (threads <= 1) return nullptr;
  return std::make_unique<ThreadPool>(threads);
}

ThreadPool::ThreadPool(size_t threads)
    : stats_enabled_(SchedulerStats::enabled()) {
  if (threads == 0) threads = HardwareThreads();
  if (stats_enabled_) {
    // Allocated before any worker starts; freed after they join.
    worker_slots_ = std::make_unique<WorkerSlot[]>(threads);
  }
  workers_.reserve(threads);
  for (size_t i = 0; i < threads; ++i) {
    workers_.emplace_back(&ThreadPool::WorkerLoop, this, i);
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&mu_);
    stop_ = true;
  }
  work_cv_.NotifyAll();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  const uint64_t enqueue_ns = stats_enabled_ ? NowNanos() : 0;
  {
    MutexLock lock(&mu_);
    queue_.push_back(QueuedTask{std::move(task), enqueue_ns});
  }
  work_cv_.NotifyOne();
}

void ThreadPool::WorkerLoop(size_t worker_index) {
  // Single-writer slot: only this worker ever writes index worker_index.
  WorkerSlot* slot = stats_enabled_ ? &worker_slots_[worker_index] : nullptr;
  for (;;) {
    QueuedTask task;
    {
      // Everything from here to holding a task counts as idle: condvar
      // park plus the (negligible) lock/pop cost around it.
      const uint64_t park_start = slot != nullptr ? NowNanos() : 0;
      MutexLock lock(&mu_);
      while (IdleLocked()) work_cv_.Wait(lock);
      if (queue_.empty()) {  // shutdown
        if (slot != nullptr) {
          slot->idle_ns.fetch_add(NowNanos() - park_start,
                                  std::memory_order_relaxed);
        }
        return;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      if (slot != nullptr) {
        const uint64_t now = NowNanos();
        slot->idle_ns.fetch_add(now - park_start, std::memory_order_relaxed);
        if (task.enqueue_ns != 0 && now > task.enqueue_ns) {
          slot->queue_wait_ns.fetch_add(now - task.enqueue_ns,
                                        std::memory_order_relaxed);
        }
      }
    }
    // Void-context site: a fired fault is counted by the injector (there
    // is no status channel here); chaos runs assert the accounting.
    PRODSYN_FAULT_HIT("thread_pool.task");
    const uint64_t busy_start = slot != nullptr ? NowNanos() : 0;
    task.fn();
    if (slot != nullptr) {
      slot->busy_ns.fetch_add(NowNanos() - busy_start,
                              std::memory_order_relaxed);
      slot->tasks.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

ChunkPlan ThreadPool::PlanChunks(size_t n, size_t threads, size_t grain) {
  ChunkPlan plan;
  if (n == 0) return plan;
  if (threads <= 1) {
    plan.grain = n;
    plan.chunks = 1;
    return plan;  // tasks == 0: inline on the caller
  }
  const size_t target = std::min(threads * kChunksPerThread, n);
  plan.grain = std::max({grain, size_t{1}, (n + target - 1) / target});
  plan.chunks = (n + plan.grain - 1) / plan.grain;
  if (plan.chunks <= 1) return plan;  // tasks == 0: inline on the caller
  // One claim loop per worker that could possibly get a chunk.
  plan.tasks = std::min(threads, plan.chunks);
  return plan;
}

void ThreadPool::Run(const char* label, size_t n, size_t grain,
                     const std::function<void(size_t begin, size_t end)>& body,
                     const CancellationToken* token) {
  if (token != nullptr && token->cancelled()) return;
  const ChunkPlan plan = PlanChunks(n, thread_count(), grain);
  // Frame-local accounting: accum is null when accounting is off, so the
  // disabled fast path costs one non-atomic bool test per invocation and
  // a null test per chunk — nothing else.
  RegionAccum accum;
  RegionAccum* const acc = stats_enabled_ ? &accum : nullptr;
  const uint64_t region_start = acc != nullptr ? NowNanos() : 0;
  if (plan.tasks == 0) {
    RunChunk(body, 0, n, acc);
  } else {
    // Private latch so concurrent ParallelFor calls on the same pool
    // never wait on each other's tasks. `remaining` is set before any
    // task exists and only mutates under done_mu afterwards.
    Mutex done_mu;
    CondVar done_cv;
    size_t remaining = plan.tasks;
    // §atomics exemption (docs/STATIC_ANALYSIS.md): the claim cursor is
    // a monotone ticket counter — fetch_add hands each chunk index to
    // exactly one claim loop, so relaxed order suffices; the data the
    // chunks touch is ordered by the queue mutex (Submit/pop) on the way
    // in and by the latch mutex on the way out. Lives on this frame: the
    // latch wait below outlives every task that references it.
    std::atomic<size_t> next_chunk{0};
    for (size_t t = 0; t < plan.tasks; ++t) {
      // Claim loop: race on next_chunk for the next unstarted chunk until
      // the range is exhausted or the token fires. Which loop executes
      // which chunk is timing-dependent; slot contents are not (the
      // ParallelFor contract), so output stays bit-identical.
      // lint: sharded
      Submit([&body, &done_mu, &done_cv, &remaining, &next_chunk, plan, n,
              token, acc] {
        for (;;) {
          if (token != nullptr && token->cancelled()) break;
          const size_t c = next_chunk.fetch_add(1, std::memory_order_relaxed);
          if (acc != nullptr) {
            acc->claim_attempts.fetch_add(1, std::memory_order_relaxed);
          }
          if (c >= plan.chunks) break;
          const size_t begin = c * plan.grain;
          const size_t end = std::min(n, begin + plan.grain);
          RunChunk(body, begin, end, acc);
        }
        MutexLock lock(&done_mu);
        if (--remaining == 0) done_cv.NotifyAll();
      });
    }
    MutexLock lock(&done_mu);
    while (remaining != 0) done_cv.Wait(lock);
  }
  if (acc != nullptr) {
    FoldRegion(label, accum.executed_chunks.load(std::memory_order_relaxed),
               NowNanos() - region_start,
               accum.chunk_sum_ns.load(std::memory_order_relaxed),
               accum.chunk_min_ns.load(std::memory_order_relaxed),
               accum.chunk_max_ns.load(std::memory_order_relaxed),
               // The inline chunk is one direct hand-off, not a claim.
               plan.tasks == 0
                   ? 1
                   : accum.claim_attempts.load(std::memory_order_relaxed));
  }
}

void ThreadPool::FoldRegion(const char* label, uint64_t executed_chunks,
                            uint64_t wall_ns, uint64_t chunk_sum_ns,
                            uint64_t chunk_min_ns, uint64_t chunk_max_ns,
                            uint64_t claim_attempts) {
  const char* name = label != nullptr ? label : "parallel_for";
  if (chunk_min_ns == UINT64_MAX) chunk_min_ns = 0;  // nothing executed
  uint64_t imbalance = 0;
  if (executed_chunks > 0 && chunk_sum_ns > 0) {
    imbalance = chunk_max_ns * executed_chunks * 1000 / chunk_sum_ns;
  }
  if (executed_chunks > 0) imbalance_permille_.Record(imbalance);
  MutexLock lock(&sched_mu_);
  PoolRegionStats* region = nullptr;
  for (PoolRegionStats& r : regions_) {
    if (r.label == name) {
      region = &r;
      break;
    }
  }
  if (region == nullptr) {
    regions_.emplace_back();
    region = &regions_.back();
    region->label = name;
  }
  region->invocations += 1;
  region->chunks += executed_chunks;
  region->wall_ns += wall_ns;
  region->chunk_sum_ns += chunk_sum_ns;
  if (chunk_min_ns > 0 &&
      (region->chunk_min_ns == 0 || chunk_min_ns < region->chunk_min_ns)) {
    region->chunk_min_ns = chunk_min_ns;
  }
  region->chunk_max_ns = std::max(region->chunk_max_ns, chunk_max_ns);
  region->claim_attempts += claim_attempts;
  region->max_imbalance_permille =
      std::max(region->max_imbalance_permille, imbalance);
}

void ThreadPool::NoteRegionMergeNanos(const char* label, uint64_t ns) {
  if (!stats_enabled_) return;
  const char* name = label != nullptr ? label : "parallel_for";
  MutexLock lock(&sched_mu_);
  for (PoolRegionStats& r : regions_) {
    if (r.label == name) {
      r.merge_ns += ns;
      return;
    }
  }
  regions_.emplace_back();
  regions_.back().label = name;
  regions_.back().merge_ns = ns;
}

PoolSchedSnapshot ThreadPool::SchedSnapshot() const {
  PoolSchedSnapshot snap;
  if (!stats_enabled_) return snap;
  snap.workers.reserve(workers_.size());
  for (size_t i = 0; i < workers_.size(); ++i) {
    const WorkerSlot& slot = worker_slots_[i];
    PoolWorkerStats w;
    w.busy_ns = slot.busy_ns.load(std::memory_order_relaxed);
    w.idle_ns = slot.idle_ns.load(std::memory_order_relaxed);
    w.queue_wait_ns = slot.queue_wait_ns.load(std::memory_order_relaxed);
    w.tasks = slot.tasks.load(std::memory_order_relaxed);
    snap.workers.push_back(w);
  }
  snap.imbalance_permille = imbalance_permille_.snapshot();
  snap.imbalance_permille.name = "region.imbalance";
  snap.imbalance_permille.unit = "permille";
  MutexLock lock(&sched_mu_);
  snap.regions = regions_;
  return snap;
}

}  // namespace prodsyn
