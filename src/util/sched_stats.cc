#include "src/util/sched_stats.h"

#include <chrono>
#include <cstdlib>
#include <string>

#include "src/util/metrics_registry.h"
#include "src/util/thread_pool.h"
#include "src/util/trace.h"

namespace prodsyn {

namespace internal {
std::atomic<bool> g_sched_stats_enabled{false};
}  // namespace internal

namespace {

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

void SchedulerStats::Enable() {
  internal::g_sched_stats_enabled.store(true, std::memory_order_relaxed);
}

void SchedulerStats::Disable() {
  internal::g_sched_stats_enabled.store(false, std::memory_order_relaxed);
}

bool SchedulerStats::EnableFromEnv(bool default_on) {
  bool on = default_on;
  if (const char* value = std::getenv("PRODSYN_SCHED_STATS")) {
    on = std::string(value) != "0";
  }
  internal::g_sched_stats_enabled.store(on, std::memory_order_relaxed);
  return on;
}

void PublishTraceDrops(MetricsRegistry* registry) {
  registry->SetGauge(
      "trace.dropped_spans",
      static_cast<int64_t>(Tracer::Global().dropped_events()));
}

void PublishSchedStats(const PoolSchedSnapshot& snapshot,
                       MetricsRegistry* registry) {
  PublishTraceDrops(registry);
  uint64_t busy = 0;
  uint64_t idle = 0;
  uint64_t queue_wait = 0;
  uint64_t tasks = 0;
  for (const PoolWorkerStats& w : snapshot.workers) {
    busy += w.busy_ns;
    idle += w.idle_ns;
    queue_wait += w.queue_wait_ns;
    tasks += w.tasks;
  }
  registry->SetGauge("pool.workers",
                     static_cast<int64_t>(snapshot.workers.size()));
  registry->SetGauge("pool.tasks", static_cast<int64_t>(tasks));
  registry->SetGauge("pool.worker.busy_ns", static_cast<int64_t>(busy));
  registry->SetGauge("pool.worker.idle_ns", static_cast<int64_t>(idle));
  registry->SetGauge("pool.worker.queue_wait_ns",
                     static_cast<int64_t>(queue_wait));
  registry->GetHistogram("region.imbalance", "permille")
      ->Merge(snapshot.imbalance_permille);
  for (const PoolRegionStats& r : snapshot.regions) {
    const std::string base = "region." + r.label + ".";
    registry->SetGauge(base + "invocations",
                       static_cast<int64_t>(r.invocations));
    registry->SetGauge(base + "chunks", static_cast<int64_t>(r.chunks));
    registry->SetGauge(base + "wall_ns", static_cast<int64_t>(r.wall_ns));
    registry->SetGauge(base + "chunk_sum_ns",
                       static_cast<int64_t>(r.chunk_sum_ns));
    registry->SetGauge(base + "chunk_min_ns",
                       static_cast<int64_t>(r.chunk_min_ns));
    registry->SetGauge(base + "chunk_max_ns",
                       static_cast<int64_t>(r.chunk_max_ns));
    registry->SetGauge(base + "claim_attempts",
                       static_cast<int64_t>(r.claim_attempts));
    registry->SetGauge(base + "merge_ns", static_cast<int64_t>(r.merge_ns));
    registry->SetGauge(base + "imbalance_permille",
                       static_cast<int64_t>(r.max_imbalance_permille));
    registry->SetGauge("stage.serial_fraction." + r.label,
                       static_cast<int64_t>(r.SerialFractionPermille()));
  }
}

ScopedMergeTimer::ScopedMergeTimer(ThreadPool* pool, const char* label)
    : pool_(pool), label_(label) {
  if (pool_ == nullptr || !pool_->sched_stats_enabled()) {
    pool_ = nullptr;
    return;
  }
  start_ns_ = NowNanos();
}

void ScopedMergeTimer::Stop() {
  if (pool_ == nullptr) return;
  pool_->NoteRegionMergeNanos(label_, NowNanos() - start_ns_);
  pool_ = nullptr;
}

}  // namespace prodsyn
