// Scheduler-level observability for ThreadPool: per-worker busy/idle/
// queue-wait accounting and per-ParallelFor region statistics (chunk
// timings, load-balance factor, claim contention, sequential merge
// attribution). The accounting follows the tracer's cost model: a
// process-global enable flag sampled ONCE at pool construction, so a
// pool built while stats are disabled pays a single non-atomic bool
// test per chunk and records nothing.
//
// Determinism: like tracing and stage metrics, everything here records
// *measurements*. Enabling accounting never alters chunk plans, claim
// order, or merge order — products, weights, and ledgers stay
// bit-identical (pinned by the pipeline invariance tests).
//
// Thread safety: the per-worker slots are single-writer relaxed atomics
// (§atomics exemption, docs/STATIC_ANALYSIS.md); region aggregates are
// folded in under the pool's sched mutex at the end of each ParallelFor.
// Snapshots are consistent once the pool is quiescent (Wait returned).

#ifndef PRODSYN_UTIL_SCHED_STATS_H_
#define PRODSYN_UTIL_SCHED_STATS_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "src/util/histogram.h"

namespace prodsyn {

class MetricsRegistry;
class ThreadPool;

namespace internal {
/// One relaxed load of this flag is the entire disabled-accounting cost
/// paid at pool construction; chunks pay a plain bool test.
extern std::atomic<bool> g_sched_stats_enabled;
}  // namespace internal

/// \brief Process-global switch for scheduler accounting, mirroring
/// Tracer::enabled(). ThreadPool samples it once in its constructor, so
/// Enable() only affects pools constructed afterwards — the benches and
/// tests enable it before building their pools.
class SchedulerStats {
 public:
  /// \brief True while accounting is on for newly constructed pools.
  static bool enabled() {
    return internal::g_sched_stats_enabled.load(std::memory_order_relaxed);
  }

  static void Enable();
  static void Disable();

  /// \brief Applies the PRODSYN_SCHED_STATS environment knob:
  /// "0" disables, any other value enables, unset keeps `default_on`.
  /// Returns the resulting state.
  static bool EnableFromEnv(bool default_on);
};

/// \brief One worker thread's lifetime accounting (plain data).
struct PoolWorkerStats {
  uint64_t busy_ns = 0;        ///< wall time inside task bodies
  uint64_t idle_ns = 0;        ///< wall time parked on the work condvar
  uint64_t queue_wait_ns = 0;  ///< enqueue-to-dequeue latency, summed
  uint64_t tasks = 0;          ///< tasks executed
};

/// \brief Aggregate of every ParallelFor invocation that carried the same
/// region label (plain data). Chunk timings let callers compute the
/// load-balance factor (max/mean chunk wall) and effective parallelism
/// (chunk_sum_ns / wall_ns) per region.
struct PoolRegionStats {
  std::string label;
  uint64_t invocations = 0;
  uint64_t chunks = 0;          ///< executed chunks, summed
  uint64_t wall_ns = 0;         ///< caller-observed fork-join wall, summed
  uint64_t chunk_sum_ns = 0;    ///< sum of chunk body walls (parallel work)
  uint64_t chunk_min_ns = 0;    ///< fastest chunk across invocations
  uint64_t chunk_max_ns = 0;    ///< slowest chunk across invocations
  uint64_t claim_attempts = 0;  ///< dynamic-cursor fetch_adds (>= chunks)
  uint64_t merge_ns = 0;        ///< sequential merge wall noted by callers
  /// Load-balance factor of the worst invocation: its slowest chunk over
  /// its mean chunk wall, in permille (1000 = perfectly balanced; 0 when
  /// no chunks ran). Per invocation, so one preempted chunk among
  /// thousands of short invocations does not read as imbalance.
  uint64_t max_imbalance_permille = 0;

  /// \brief Serial fraction of the region's stage in permille: the noted
  /// sequential merge wall over merge + parallel-section wall. The
  /// Amdahl `s` input for this call site.
  uint64_t SerialFractionPermille() const {
    const uint64_t total = merge_ns + wall_ns;
    if (total == 0) return 0;
    return merge_ns * 1000 / total;
  }
};

/// \brief Point-in-time copy of a pool's scheduler accounting.
struct PoolSchedSnapshot {
  std::vector<PoolWorkerStats> workers;
  std::vector<PoolRegionStats> regions;  ///< first-use label order
  /// One observation per multi-chunk region invocation: that
  /// invocation's load-balance factor in permille.
  HistogramSnapshot imbalance_permille;
};

/// \brief Publishes a pool snapshot into a MetricsRegistry:
/// `pool.workers`, `pool.tasks`, `pool.worker.{busy,idle,queue_wait}_ns`
/// gauges (summed over workers), the `region.imbalance` histogram (unit
/// "permille"), and per-label `region.<label>.*` gauges plus
/// `stage.serial_fraction.<label>`. Also sets `trace.dropped_spans` from
/// the global tracer so truncated traces are visible next to the
/// scheduler numbers. Rendered by RenderJson — see docs/OBSERVABILITY.md
/// for the full name list.
void PublishSchedStats(const PoolSchedSnapshot& snapshot,
                       MetricsRegistry* registry);

/// \brief Sets only the `trace.dropped_spans` gauge (for runs without a
/// pool, e.g. thread_count <= 1, where no scheduler snapshot exists).
void PublishTraceDrops(MetricsRegistry* registry);

/// \brief RAII timer attributing a sequential merge section to a region
/// label via ThreadPool::NoteRegionMergeNanos. No-op when `pool` is null
/// or the pool's accounting is off, so call sites need no branching.
/// Lives in src/util so pipeline code never touches a raw clock (lint
/// rule R5).
class ScopedMergeTimer {
 public:
  ScopedMergeTimer(ThreadPool* pool, const char* label);
  ~ScopedMergeTimer() { Stop(); }

  /// \brief Records the elapsed merge wall now and disarms the timer
  /// (for merge sections that end before the enclosing scope does).
  /// Idempotent; the destructor calls it too.
  void Stop();

  ScopedMergeTimer(const ScopedMergeTimer&) = delete;
  ScopedMergeTimer& operator=(const ScopedMergeTimer&) = delete;

 private:
  ThreadPool* pool_;
  const char* label_;
  uint64_t start_ns_ = 0;
};

}  // namespace prodsyn

#endif  // PRODSYN_UTIL_SCHED_STATS_H_
