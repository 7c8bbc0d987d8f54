#include "src/util/stage_metrics.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/util/thread_pool.h"

namespace prodsyn {
namespace {

TEST(StageMetricsTest, GetStageReturnsSameHandleForSameName) {
  StageMetrics metrics;
  StageCounters* a = metrics.GetStage("extraction");
  StageCounters* b = metrics.GetStage("extraction");
  EXPECT_EQ(a, b);
  EXPECT_EQ(a->name(), "extraction");
}

TEST(StageMetricsTest, SnapshotPreservesRegistrationOrder) {
  StageMetrics metrics;
  metrics.GetStage("classification");
  metrics.GetStage("extraction");
  metrics.GetStage("fusion");
  metrics.GetStage("extraction");  // re-lookup must not duplicate
  const auto snaps = metrics.Snapshot();
  ASSERT_EQ(snaps.size(), 3u);
  EXPECT_EQ(snaps[0].name, "classification");
  EXPECT_EQ(snaps[1].name, "extraction");
  EXPECT_EQ(snaps[2].name, "fusion");
}

TEST(StageMetricsTest, CountersAggregateAcrossThreads) {
  StageMetrics metrics;
  StageCounters* stage = metrics.GetStage("extraction");
  ThreadPool pool(4);
  ThreadPool::ParallelFor(&pool, "test.items", 1000, 1,
                          [stage](size_t begin, size_t end) {
                            for (size_t i = begin; i < end; ++i) {
                              stage->AddItems(1);
                            }
                          });
  EXPECT_EQ(stage->snapshot().items, 1000u);
}

TEST(StageMetricsTest, ThreadCpuClockIsMonotonePerThread) {
  const uint64_t first = ThreadCpuNanos();
  // Burn a little CPU so a functioning clock must advance.
  volatile uint64_t sink = 0;
  for (uint64_t i = 0; i < 2000000; ++i) sink = sink + i;
  const uint64_t second = ThreadCpuNanos();
  EXPECT_GE(second, first);
}

TEST(StageMetricsTest, ScopedTimerAccumulatesMonotonically) {
  StageCounters stage("timed");
  uint64_t previous_wall = 0;
  for (int round = 0; round < 3; ++round) {
    {
      ScopedStageTimer timer(&stage);
      volatile uint64_t sink = 0;
      for (uint64_t i = 0; i < 100000; ++i) sink = sink + i;
    }
    const StageSnapshot snap = stage.snapshot();
    // Timers only ever add: each scope strictly grows the wall total.
    EXPECT_GT(snap.wall_ns, previous_wall);
    previous_wall = snap.wall_ns;
  }
}

TEST(StageMetricsTest, NullStageTimerIsANoOp) {
  ScopedStageTimer timer(nullptr);  // must not crash on destruction
  SUCCEED();
}

TEST(StageMetricsTest, TimersAggregateAcrossThreads) {
  StageMetrics metrics;
  StageCounters* stage = metrics.GetStage("parallel");
  ThreadPool pool(3);
  ThreadPool::ParallelFor(&pool, "test.timers", 3, 1,
                          [stage](size_t begin, size_t end) {
                            for (size_t i = begin; i < end; ++i) {
                              ScopedStageTimer timer(stage);
                              volatile uint64_t sink = 0;
                              for (uint64_t j = 0; j < 500000; ++j) {
                                sink = sink + j;
                              }
                            }
                          });
  const StageSnapshot snap = stage->snapshot();
  EXPECT_GT(snap.wall_ns, 0u);
  // CPU cannot meaningfully exceed wall when both are summed over the
  // same scopes; allow 1ms slack per scope for clock granularity.
  EXPECT_LE(snap.cpu_ns, snap.wall_ns + 3000000u);
}

}  // namespace
}  // namespace prodsyn
