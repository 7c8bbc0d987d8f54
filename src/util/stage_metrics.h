// Lightweight per-stage observability for the run-time pipeline: wall and
// CPU timers, item counters, and latency histograms, aggregated across
// worker threads with relaxed atomics (each counter is independent; only
// the final Snapshot needs a consistent view, taken after the workers
// join). The counters feed SynthesisStats::stage_metrics and the
// machine-readable output of bench_perf_pipeline.
//
// Timings are measurements, not semantics: every timing field varies run
// to run and is explicitly OUTSIDE the pipeline's determinism contract
// (products and stats counters are bit-identical for any thread count;
// nanosecond readings are not).

#ifndef PRODSYN_UTIL_STAGE_METRICS_H_
#define PRODSYN_UTIL_STAGE_METRICS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/util/histogram.h"
#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace prodsyn {

/// \brief Point-in-time copy of one stage's counters (plain values, safe
/// to store and compare after the run).
struct StageSnapshot {
  /// Stage name as registered ("extraction", "fusion", ...).
  std::string name;
  /// Total wall-clock nanoseconds spent inside the stage, summed across
  /// all threads (for a stage run on N threads this can exceed elapsed
  /// time; wall - cpu ≈ time blocked or preempted).
  uint64_t wall_ns = 0;
  /// Total thread-CPU nanoseconds spent inside the stage, summed across
  /// all threads. 0 on platforms without a thread CPU clock.
  uint64_t cpu_ns = 0;
  /// Items processed (offers, pairs, clusters — stage-defined).
  uint64_t items = 0;
  /// Distribution of per-timed-scope wall nanoseconds (one observation
  /// per ScopedStageTimer / RecordLatencyNanos). `name` is the stage
  /// name, `unit` is "ns". Like the timing totals, the observed values
  /// are measurements outside the determinism contract.
  HistogramSnapshot latency;
};

/// \brief Thread-safe accumulator for one pipeline stage.
///
/// Thread safety: all Add*/Record* methods may be called concurrently
/// from any number of threads (relaxed atomics — the counters are
/// independent). snapshot() is safe concurrently too but is only
/// guaranteed to be a consistent total after the contributing threads
/// have joined.
class StageCounters {
 public:
  explicit StageCounters(std::string name) : name_(std::move(name)) {}

  StageCounters(const StageCounters&) = delete;
  StageCounters& operator=(const StageCounters&) = delete;

  /// \brief Adds `n` processed items.
  void AddItems(uint64_t n) { items_.fetch_add(n, std::memory_order_relaxed); }

  /// \brief Adds wall-clock nanoseconds spent in the stage.
  void AddWallNanos(uint64_t ns) {
    wall_ns_.fetch_add(ns, std::memory_order_relaxed);
  }

  /// \brief Adds thread-CPU nanoseconds spent in the stage.
  void AddCpuNanos(uint64_t ns) {
    cpu_ns_.fetch_add(ns, std::memory_order_relaxed);
  }

  /// \brief Adds one latency observation (wall nanoseconds of one timed
  /// scope) to the stage's log2-bucketed histogram. ScopedStageTimer
  /// calls this automatically alongside AddWallNanos.
  void RecordLatencyNanos(uint64_t ns) { latency_ns_.Record(ns); }

  const std::string& name() const { return name_; }

  /// \brief Current counter values as plain data.
  StageSnapshot snapshot() const;

 private:
  const std::string name_;
  // Independent relaxed atomics by design — each counter is its own
  // synchronization domain, so there is no mutex for TSA to check here;
  // see docs/STATIC_ANALYSIS.md §atomics for when this pattern is
  // acceptable (monotone accumulators whose consistent total is only
  // read after the contributing threads join).
  std::atomic<uint64_t> wall_ns_{0};
  std::atomic<uint64_t> cpu_ns_{0};
  std::atomic<uint64_t> items_{0};
  LogHistogram latency_ns_;
};

/// \brief Registry of the stages of one pipeline run.
///
/// Thread safety: GetStage and Snapshot are mutex-guarded and may be
/// called from any thread; the returned StageCounters pointers stay valid
/// for the StageMetrics' lifetime and are themselves thread-safe.
class StageMetrics {
 public:
  StageMetrics() = default;
  StageMetrics(const StageMetrics&) = delete;
  StageMetrics& operator=(const StageMetrics&) = delete;

  /// \brief Returns the stage named `name`, creating it on first use.
  /// Registration order is preserved in Snapshot().
  StageCounters* GetStage(const std::string& name) PRODSYN_EXCLUDES(mu_);

  /// \brief Copies of every stage's counters, in registration order.
  std::vector<StageSnapshot> Snapshot() const PRODSYN_EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  // The vector (layout) is guarded; the pointed-to StageCounters are
  // handed out unlocked on purpose — their state is relaxed atomics.
  std::vector<std::unique_ptr<StageCounters>> stages_
      PRODSYN_GUARDED_BY(mu_);
};

/// \brief This thread's consumed CPU time in nanoseconds
/// (CLOCK_THREAD_CPUTIME_ID); 0 where unavailable. Monotone per thread.
uint64_t ThreadCpuNanos();

/// \brief RAII timer: on destruction adds the elapsed wall-clock AND
/// thread-CPU nanoseconds of its scope to the stage. A null stage makes
/// it a no-op, so instrumented code paths need no branching.
///
/// Thread safety: each instance must live on one thread (it reads that
/// thread's CPU clock); distinct instances on distinct threads may share
/// the target StageCounters.
class ScopedStageTimer {
 public:
  explicit ScopedStageTimer(StageCounters* stage);
  ~ScopedStageTimer();

  ScopedStageTimer(const ScopedStageTimer&) = delete;
  ScopedStageTimer& operator=(const ScopedStageTimer&) = delete;

 private:
  StageCounters* stage_;
  std::chrono::steady_clock::time_point wall_start_;
  uint64_t cpu_start_ = 0;
};

}  // namespace prodsyn

#endif  // PRODSYN_UTIL_STAGE_METRICS_H_
