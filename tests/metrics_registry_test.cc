#include "src/util/metrics_registry.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "src/util/sched_stats.h"

namespace prodsyn {
namespace {

TEST(MetricsRegistryTest, StagesAreSharedByName) {
  MetricsRegistry registry;
  StageCounters* a = registry.GetStage("extraction");
  StageCounters* b = registry.GetStage("extraction");
  EXPECT_EQ(a, b);
  a->AddItems(3);
  const RegistrySnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.stages.size(), 1u);
  EXPECT_EQ(snap.stages[0].name, "extraction");
  EXPECT_EQ(snap.stages[0].items, 3u);
}

TEST(MetricsRegistryTest, StageLatencyHistogramFeedsSnapshot) {
  MetricsRegistry registry;
  StageCounters* stage = registry.GetStage("fusion");
  stage->RecordLatencyNanos(1000);
  stage->RecordLatencyNanos(3000);
  const RegistrySnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.stages.size(), 1u);
  EXPECT_EQ(snap.stages[0].latency.count, 2u);
  EXPECT_GT(snap.stages[0].latency.p50(), 0.0);
  EXPECT_GT(snap.stages[0].latency.p99(), 0.0);
  EXPECT_EQ(snap.stages[0].latency.unit, "ns");
}

TEST(MetricsRegistryTest, HistogramsAndGauges) {
  MetricsRegistry registry;
  LogHistogram* h = registry.GetHistogram("fetch_bytes", "bytes");
  EXPECT_EQ(h, registry.GetHistogram("fetch_bytes", "bytes"));
  h->Record(512);
  registry.SetGauge("runtime.threads", 4);
  registry.AddGauge("runtime.threads", 2);
  registry.AddGauge("retries", 1);
  const RegistrySnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].name, "fetch_bytes");
  EXPECT_EQ(snap.histograms[0].unit, "bytes");
  EXPECT_EQ(snap.histograms[0].count, 1u);
  ASSERT_EQ(snap.gauges.size(), 2u);
  EXPECT_EQ(snap.gauges[0].name, "runtime.threads");
  EXPECT_EQ(snap.gauges[0].value, 6);
  EXPECT_EQ(snap.gauges[1].name, "retries");
  EXPECT_EQ(snap.gauges[1].value, 1);
}

TEST(MetricsRegistryTest, RenderJsonContainsAllSections) {
  MetricsRegistry registry;
  StageCounters* stage = registry.GetStage("clustering");
  stage->AddItems(7);
  stage->RecordLatencyNanos(2048);
  registry.GetHistogram("queue_wait")->Record(100);
  registry.SetGauge("runtime.threads", 4);
  const std::string json = MetricsRegistry::RenderJson(registry.Snapshot());
  EXPECT_NE(json.find("\"stages\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"clustering\""), std::string::npos);
  EXPECT_NE(json.find("\"items\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"queue_wait\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("{\"name\": \"runtime.threads\", \"value\": 4}"),
            std::string::npos);
}

TEST(MetricsRegistryTest, ConcurrentStageUpdatesAggregate) {
  MetricsRegistry registry;
  StageCounters* stage = registry.GetStage("score");
  constexpr size_t kThreads = 4;
  constexpr uint64_t kPerThread = 2000;
  std::vector<std::thread> workers;
  for (size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        stage->AddItems(1);
        stage->RecordLatencyNanos(100 + i);
        registry.AddGauge("ops", 1);
      }
    });
  }
  for (auto& w : workers) w.join();
  const RegistrySnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.stages[0].items, kThreads * kPerThread);
  EXPECT_EQ(snap.stages[0].latency.count, kThreads * kPerThread);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].value,
            static_cast<int64_t>(kThreads * kPerThread));
}

TEST(MetricsRegistryTest, SchedStatsSchemaInBothExpositions) {
  // The scheduler-observability names the docs promise: publishing a
  // pool snapshot must surface pool.worker.*, region.imbalance,
  // region.<label>.*, stage.serial_fraction.<label>, and
  // trace.dropped_spans in RenderJson — since the Prometheus renderer
  // was deleted, the one exposition left.
  PoolSchedSnapshot snapshot;
  PoolWorkerStats worker;
  worker.busy_ns = 5'000'000;
  worker.idle_ns = 1'000'000;
  worker.queue_wait_ns = 250'000;
  worker.tasks = 3;
  snapshot.workers.push_back(worker);
  PoolRegionStats region;
  region.label = "lr.epoch";
  region.invocations = 2;
  region.chunks = 8;
  region.wall_ns = 4'000'000;
  region.chunk_sum_ns = 6'000'000;
  region.chunk_min_ns = 500'000;
  region.chunk_max_ns = 1'500'000;
  region.claim_attempts = 10;
  region.merge_ns = 1'000'000;
  // Whole-run max/mean would read 1.5e6 * 8 / 6e6 = 2000; the gauge is
  // the worst single invocation's factor instead.
  region.max_imbalance_permille = 1250;
  snapshot.regions.push_back(region);
  LogHistogram imbalance;
  imbalance.Record(region.max_imbalance_permille);
  snapshot.imbalance_permille = imbalance.snapshot();
  snapshot.imbalance_permille.name = "region.imbalance";
  snapshot.imbalance_permille.unit = "permille";

  MetricsRegistry registry;
  PublishSchedStats(snapshot, &registry);
  const RegistrySnapshot snap = registry.Snapshot();

  const std::string json = MetricsRegistry::RenderJson(snap);
  for (const char* needle :
       {"\"pool.workers\"", "\"pool.worker.busy_ns\", \"value\": 5000000",
        "\"pool.worker.idle_ns\", \"value\": 1000000",
        "\"pool.worker.queue_wait_ns\"", "\"pool.tasks\", \"value\": 3",
        "\"region.imbalance\"", "\"region.lr.epoch.chunks\", \"value\": 8",
        "\"region.lr.epoch.wall_ns\"", "\"region.lr.epoch.chunk_sum_ns\"",
        "\"region.lr.epoch.claim_attempts\", \"value\": 10",
        "\"region.lr.epoch.merge_ns\"",
        "\"region.lr.epoch.imbalance_permille\", \"value\": 1250",
        "\"stage.serial_fraction.lr.epoch\", \"value\": 200",
        "\"trace.dropped_spans\""}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle;
  }
}

}  // namespace
}  // namespace prodsyn
