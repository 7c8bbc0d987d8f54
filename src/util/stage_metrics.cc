#include "src/util/stage_metrics.h"

#if defined(__unix__) || defined(__APPLE__)
#include <time.h>
#endif

namespace prodsyn {

uint64_t ThreadCpuNanos() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  struct timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
#else
  return 0;
#endif
}

StageSnapshot StageCounters::snapshot() const {
  StageSnapshot snap;
  snap.name = name_;
  snap.wall_ns = wall_ns_.load(std::memory_order_relaxed);
  snap.cpu_ns = cpu_ns_.load(std::memory_order_relaxed);
  snap.items = items_.load(std::memory_order_relaxed);
  snap.latency = latency_ns_.snapshot();
  snap.latency.name = name_;
  snap.latency.unit = "ns";
  return snap;
}

StageCounters* StageMetrics::GetStage(const std::string& name) {
  MutexLock lock(&mu_);
  for (const auto& stage : stages_) {
    if (stage->name() == name) return stage.get();
  }
  stages_.push_back(std::make_unique<StageCounters>(name));
  return stages_.back().get();
}

std::vector<StageSnapshot> StageMetrics::Snapshot() const {
  MutexLock lock(&mu_);
  std::vector<StageSnapshot> out;
  out.reserve(stages_.size());
  for (const auto& stage : stages_) out.push_back(stage->snapshot());
  return out;
}

ScopedStageTimer::ScopedStageTimer(StageCounters* stage) : stage_(stage) {
  if (stage_ == nullptr) return;
  wall_start_ = std::chrono::steady_clock::now();
  cpu_start_ = ThreadCpuNanos();
}

ScopedStageTimer::~ScopedStageTimer() {
  if (stage_ == nullptr) return;
  const uint64_t cpu_end = ThreadCpuNanos();
  const auto wall_end = std::chrono::steady_clock::now();
  const uint64_t wall_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(wall_end -
                                                           wall_start_)
          .count());
  stage_->AddWallNanos(wall_ns);
  stage_->RecordLatencyNanos(wall_ns);
  if (cpu_end > cpu_start_) stage_->AddCpuNanos(cpu_end - cpu_start_);
}

}  // namespace prodsyn
