// Chaos suite of the fault-tolerance layer: quarantine accounting under
// injected faults, ledger determinism across thread counts, quarantine ==
// fail-fast on clean input, deadlines/cancellation, and a sweep proving
// every registered fault site actually fires and is accounted for.
//
// Fault-dependent tests skip themselves in builds where injection is
// compiled out (plain Release); the CI chaos leg runs them under the
// asan-ubsan preset where PRODSYN_FORCE_DCHECK turns the sites on.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/catalog/feed.h"
#include "src/datagen/world.h"
#include "src/pipeline/synthesizer.h"
#include "src/snapshot/offline_snapshot.h"
#include "src/snapshot/reader.h"
#include "src/snapshot/writer.h"
#include "src/util/fault.h"
#include "src/util/file.h"
#include "src/util/thread_pool.h"

namespace prodsyn {
namespace {

class ChaosWorld : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    WorldConfig config;
    config.seed = 13;
    config.categories_per_archetype = 1;
    config.merchants = 30;
    config.products_per_category = 15;
    world_ = new World(*World::Generate(config));
  }
  static void TearDownTestSuite() {
    delete world_;
    world_ = nullptr;
  }
  void SetUp() override { FaultInjector::Global().Reset(); }
  void TearDown() override { FaultInjector::Global().Reset(); }

  // Fresh synthesizer with offline learning done (faults should be armed
  // after this returns, or use offline-specific tests).
  static ProductSynthesizer MakeLearned(SynthesizerOptions options) {
    ProductSynthesizer synthesizer(&world_->catalog, std::move(options));
    auto st = synthesizer.LearnOffline(world_->historical_offers,
                                       world_->historical_matches);
    EXPECT_TRUE(st.ok()) << st;
    return synthesizer;
  }

  static World* world_;
};

World* ChaosWorld::world_ = nullptr;

bool ProductsEqual(const std::vector<SynthesizedProduct>& a,
                   const std::vector<SynthesizedProduct>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].category != b[i].category || a[i].key != b[i].key ||
        !(a[i].spec == b[i].spec) ||
        a[i].source_offers != b[i].source_offers) {
      return false;
    }
  }
  return true;
}

// The deterministic counters of the contract (stage_metrics/registry are
// timing observability and excluded by design).
void ExpectStatsEqual(const SynthesisStats& a, const SynthesisStats& b) {
  EXPECT_EQ(a.input_offers, b.input_offers);
  EXPECT_EQ(a.offers_with_extracted_pairs, b.offers_with_extracted_pairs);
  EXPECT_EQ(a.extracted_pairs, b.extracted_pairs);
  EXPECT_EQ(a.reconciled_pairs, b.reconciled_pairs);
  EXPECT_EQ(a.offers_without_key, b.offers_without_key);
  EXPECT_EQ(a.clusters, b.clusters);
  EXPECT_EQ(a.synthesized_products, b.synthesized_products);
  EXPECT_EQ(a.synthesized_attributes, b.synthesized_attributes);
  EXPECT_EQ(a.correspondences_applied, b.correspondences_applied);
  EXPECT_EQ(a.quarantined_offers, b.quarantined_offers);
  EXPECT_EQ(a.quarantined_clusters, b.quarantined_clusters);
  EXPECT_EQ(a.offer_retries, b.offer_retries);
  EXPECT_EQ(a.cancelled_offers, b.cancelled_offers);
}

void ExpectLedgersEqual(const ErrorLedger& a, const ErrorLedger& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    const ErrorLedgerEntry& ea = a.entries()[i];
    const ErrorLedgerEntry& eb = b.entries()[i];
    EXPECT_EQ(ea.offer_id, eb.offer_id) << "entry " << i;
    EXPECT_EQ(ea.stage, eb.stage) << "entry " << i;
    EXPECT_EQ(ea.status, eb.status) << "entry " << i;
    EXPECT_EQ(ea.retries, eb.retries) << "entry " << i;
  }
}

// Arms the five run-time keyed sites with mixed probabilities — the
// standing chaos storm used by the determinism tests.
void ArmRuntimeStorm() {
  auto arm = [](const char* site, double probability, uint64_t seed,
                StatusCode code) {
    FaultSpec spec;
    spec.code = code;
    spec.probability = probability;
    spec.seed = seed;
    FaultInjector::Global().Arm(site, spec);
  };
  arm("runtime.classification", 0.05, 11, StatusCode::kInternal);
  arm("runtime.extraction", 0.10, 22, StatusCode::kIOError);
  arm("runtime.reconciliation", 0.05, 33, StatusCode::kInternal);
  arm("runtime.clustering", 0.05, 44, StatusCode::kInternal);
  arm("runtime.fusion", 0.10, 55, StatusCode::kInternal);
}

TEST_F(ChaosWorld, QuarantineOnCleanInputMatchesFailFast) {
  SynthesizerOptions fail_fast;
  fail_fast.runtime_threads = 2;
  auto s1 = MakeLearned(fail_fast);
  auto r1 = *s1.Synthesize(world_->incoming_offers, world_->pages);

  SynthesizerOptions quarantine = fail_fast;
  quarantine.error_policy = ErrorPolicy::kQuarantine;
  quarantine.quarantine_retries = 2;
  auto s2 = MakeLearned(quarantine);
  auto r2 = *s2.Synthesize(world_->incoming_offers, world_->pages);

  EXPECT_TRUE(ProductsEqual(r1.products, r2.products));
  ExpectStatsEqual(r1.stats, r2.stats);
  EXPECT_TRUE(r1.complete);
  EXPECT_TRUE(r2.complete);
  // Policy difference is visible only in the ledger's presence.
  EXPECT_EQ(r1.ledger, nullptr);
  ASSERT_NE(r2.ledger, nullptr);
  EXPECT_TRUE(r2.ledger->empty());
  EXPECT_EQ(r2.stats.quarantined_offers, 0u);
  EXPECT_EQ(r2.stats.offer_retries, 0u);
}

TEST_F(ChaosWorld, LedgerBitIdenticalAcrossThreadCounts) {
  if (!PRODSYN_FAULT_INJECTION_IS_ON()) {
    GTEST_SKIP() << "fault injection compiled out in this build";
  }
  std::vector<SynthesisResult> results;
  for (size_t threads : {1u, 2u, 4u, 0u}) {
    FaultInjector::Global().Reset();
    SynthesizerOptions options;
    options.error_policy = ErrorPolicy::kQuarantine;
    options.quarantine_retries = 1;
    options.runtime_threads = threads;
    auto synthesizer = MakeLearned(options);
    ArmRuntimeStorm();  // after learning: the storm targets run-time only
    auto result = synthesizer.Synthesize(world_->incoming_offers,
                                         world_->pages);
    FaultInjector::Global().Reset();
    ASSERT_TRUE(result.ok()) << result.status();
    results.push_back(*std::move(result));
  }
  ASSERT_NE(results[0].ledger, nullptr);
  EXPECT_GT(results[0].ledger->size(), 0u)
      << "storm too weak: no faults injected, determinism check is vacuous";
  EXPECT_TRUE(results[0].complete);
  for (size_t i = 1; i < results.size(); ++i) {
    SCOPED_TRACE("thread configuration #" + std::to_string(i));
    EXPECT_TRUE(ProductsEqual(results[0].products, results[i].products));
    ExpectStatsEqual(results[0].stats, results[i].stats);
    ASSERT_NE(results[i].ledger, nullptr);
    ExpectLedgersEqual(*results[0].ledger, *results[i].ledger);
  }
}

TEST_F(ChaosWorld, PerStageQuarantineAccounting) {
  if (!PRODSYN_FAULT_INJECTION_IS_ON()) {
    GTEST_SKIP() << "fault injection compiled out in this build";
  }
  struct StageSite {
    const char* site;
    FailureStage stage;
    bool cluster_scope;
  };
  const std::vector<StageSite> sites = {
      {"runtime.classification", FailureStage::kClassification, false},
      {"runtime.extraction", FailureStage::kExtraction, false},
      {"runtime.reconciliation", FailureStage::kReconciliation, false},
      {"runtime.clustering", FailureStage::kClustering, false},
      {"runtime.fusion", FailureStage::kFusion, true},
  };
  for (const StageSite& site : sites) {
    SCOPED_TRACE(site.site);
    FaultInjector::Global().Reset();
    SynthesizerOptions options;
    options.error_policy = ErrorPolicy::kQuarantine;
    options.runtime_threads = 2;
    auto synthesizer = MakeLearned(options);
    FaultSpec spec;  // keyed, probability 1: every work item fails here
    FaultInjector::Global().Arm(site.site, spec);
    auto result =
        *synthesizer.Synthesize(world_->incoming_offers, world_->pages);
    const uint64_t injected = FaultInjector::Global().injected(site.site);
    FaultInjector::Global().Reset();
    ASSERT_NE(result.ledger, nullptr);
    // Every injected fault is accounted for by exactly one ledger entry.
    EXPECT_GT(injected, 0u);
    EXPECT_EQ(result.ledger->size(), injected);
    EXPECT_EQ(result.ledger->size(),
              site.cluster_scope ? result.stats.quarantined_clusters
                                 : result.stats.quarantined_offers);
    for (const ErrorLedgerEntry& entry : result.ledger->entries()) {
      EXPECT_EQ(entry.stage, site.stage);
      EXPECT_NE(entry.offer_id, kInvalidOffer);
      EXPECT_EQ(entry.status.message(),
                std::string("injected fault at ") + site.site);
    }
    if (site.cluster_scope) {
      EXPECT_EQ(result.products.size(), 0u);  // every cluster quarantined
    }
  }
}

TEST_F(ChaosWorld, EveryRegisteredSiteFiresAndLedgerIsDumpable) {
  if (!PRODSYN_FAULT_INJECTION_IS_ON()) {
    GTEST_SKIP() << "fault injection compiled out in this build";
  }
  // Discovery pass: a clean run with recording on registers every
  // reachable site.
  FaultInjector::Global().set_recording(true);
  {
    SynthesizerOptions options;
    options.runtime_threads = 2;
    auto synthesizer = MakeLearned(options);
    ASSERT_TRUE(
        synthesizer.Synthesize(world_->incoming_offers, world_->pages)
            .ok());
    const std::string path = ::testing::TempDir() + "/chaos_probe.txt";
    ASSERT_TRUE(WriteStringToFile(path, "x").ok());
    ASSERT_TRUE(ReadFileToString(path).ok());
    std::remove(path.c_str());
    // One data line so the per-line site executes too.
    ASSERT_TRUE(ParseFeed("source_url\ttitle\tdescription\tprice\tseller"
                          "\tcategory\tspec\n"
                          "u\tt\td\t1\ts\tc\t\n")
                    .ok());
    // A tiny save + load so the snapshot.* sites register too.
    const std::string snap_path = ::testing::TempDir() + "/chaos_probe.snap";
    OfflineSnapshot snap;
    snap.lr_weights = {1.0};
    ASSERT_TRUE(SaveOfflineSnapshot(snap, snap_path).ok());
    ASSERT_TRUE(LoadOfflineSnapshot(snap_path).ok());
    std::remove(snap_path.c_str());
  }
  const std::vector<std::string> sites =
      FaultInjector::Global().RegisteredSites();
  ASSERT_GE(sites.size(), 10u) << "discovery run registered too few sites";

  // Chaos pass: fire every discovered site through a driver that reaches
  // it, and ledger every quarantined failure. A site this sweep has no
  // driver for fails the test — extend the drivers when adding sites.
  ErrorLedger sweep_ledger;
  // The sweep loop is single-threaded, so it is its own "sequential
  // merge" for the purposes of the ledger's phase capability.
  PhaseLock sweep_merge(sweep_ledger.merge_phase());
  for (const std::string& site : sites) {
    SCOPED_TRACE(site);
    FaultInjector::Global().Reset();
    FaultSpec spec;
    if (site.rfind("runtime.", 0) == 0) {
      SynthesizerOptions options;
      options.error_policy = ErrorPolicy::kQuarantine;
      options.runtime_threads = 2;
      auto synthesizer = MakeLearned(options);  // learn before arming
      FaultInjector::Global().Arm(site, spec);
      auto result =
          *synthesizer.Synthesize(world_->incoming_offers, world_->pages);
      ASSERT_NE(result.ledger, nullptr);
      EXPECT_EQ(result.ledger->size(),
                FaultInjector::Global().injected(site));
      for (const ErrorLedgerEntry& entry : result.ledger->entries()) {
        sweep_ledger.Add(entry);
      }
    } else if (site.rfind("offline.", 0) == 0) {
      FaultInjector::Global().Arm(site, spec);
      ProductSynthesizer synthesizer(&world_->catalog, {});
      Status st = synthesizer.LearnOffline(world_->historical_offers,
                                           world_->historical_matches);
      EXPECT_TRUE(st.IsInternal()) << st;
      sweep_ledger.Add(
          {kInvalidOffer, FailureStage::kOffline, st, 0});
    } else if (site == "file.read") {
      FaultInjector::Global().Arm(site, spec);
      const std::string path = ::testing::TempDir() + "/chaos_read.txt";
      ASSERT_TRUE(WriteStringToFile(path, "x").ok());
      Status st = ReadFileToString(path).status();
      std::remove(path.c_str());
      EXPECT_TRUE(st.IsInternal()) << st;
      sweep_ledger.Add({kInvalidOffer, FailureStage::kIngestion, st, 0});
    } else if (site.rfind("feed.", 0) == 0) {
      FaultInjector::Global().Arm(site, spec);
      Status st = ParseFeed("source_url\ttitle\tdescription\tprice\tseller"
                            "\tcategory\tspec\na\tb\tc\t1\td\te\t\n")
                      .status();
      EXPECT_TRUE(st.IsInternal()) << st;
      sweep_ledger.Add({kInvalidOffer, FailureStage::kIngestion, st, 0});
    } else if (site.rfind("snapshot.", 0) == 0) {
      // Writer sites (snapshot.write, snapshot.fsync) fail the save;
      // reader sites (snapshot.map, snapshot.checksum, snapshot.read)
      // fail the load of a freshly saved good file. Either way: clean
      // Status, no temp-file leak, no partial publish.
      FaultInjector::Global().Arm(site, spec);
      const std::string path = ::testing::TempDir() + "/chaos_snapshot.snap";
      std::remove(path.c_str());
      OfflineSnapshot snap;
      snap.lr_weights = {1.0};
      Status st = SaveOfflineSnapshot(snap, path);
      if (st.ok()) {
        st = LoadOfflineSnapshot(path).status();
      } else {
        std::ifstream tmp(path + ".tmp");
        EXPECT_FALSE(tmp.good()) << "failed save leaked its temp file";
      }
      std::remove(path.c_str());
      std::remove((path + ".tmp").c_str());
      EXPECT_TRUE(st.IsInternal()) << st;
      sweep_ledger.Add({kInvalidOffer, FailureStage::kIngestion, st, 0});
    } else if (site == "thread_pool.task") {
      FaultInjector::Global().Arm(site, spec);
      // Every claim loop ParallelFor submits is one pool task.
      ThreadPool pool(2);
      ThreadPool::ParallelFor(&pool, "chaos.pool_task", 8, 1,
                              [](size_t, size_t) {});
    } else {
      FAIL() << "no chaos driver for registered fault site '" << site
             << "' — add one to this sweep";
    }
    EXPECT_GT(FaultInjector::Global().injected(site), 0u)
        << "site registered but the chaos driver never fired it";
  }
  FaultInjector::Global().Reset();

  // CI uploads the sweep ledger as the chaos artifact.
  const char* dump_path = std::getenv("PRODSYN_CHAOS_LEDGER");
  if (dump_path != nullptr && *dump_path != '\0') {
    ASSERT_TRUE(sweep_ledger.WriteJsonl(dump_path).ok());
  }
  EXPECT_FALSE(sweep_ledger.ToJsonl().empty());
}

// Fails the first Fetch of every URL and serves normally afterwards — a
// transient page-serving flake of the kind quarantine_retries exists for.
class FlakyOncePages : public LandingPageProvider {
 public:
  explicit FlakyOncePages(const LandingPageProvider* inner)
      : inner_(inner) {}
  Result<std::string> Fetch(const std::string& url) const override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (seen_.insert(url).second) {
        return Status::IOError("transient fetch flake: " + url);
      }
    }
    return inner_->Fetch(url);
  }

 private:
  const LandingPageProvider* inner_;
  mutable std::mutex mu_;
  mutable std::set<std::string> seen_;
};

TEST_F(ChaosWorld, QuarantineRetriesRecoverTransientFetchFailures) {
  // (The runtime fault sites are keyed — the same offer fails every
  // attempt by design — so transient recovery is driven by a genuinely
  // transient dependency instead.)
  SynthesizerOptions options;
  options.error_policy = ErrorPolicy::kQuarantine;
  options.quarantine_retries = 2;
  options.runtime_threads = 2;
  auto synthesizer = MakeLearned(options);

  auto clean = MakeLearned(options);
  auto clean_result =
      *clean.Synthesize(world_->incoming_offers, world_->pages);

  FlakyOncePages flaky(&world_->pages);
  auto result = *synthesizer.Synthesize(world_->incoming_offers, flaky);

  // Every offer's first attempt lost its fetch; the per-offer retry
  // recovered all of them, so nothing reached the ledger and the output
  // matches the clean run.
  ASSERT_NE(result.ledger, nullptr);
  EXPECT_TRUE(result.ledger->empty());
  EXPECT_EQ(result.stats.quarantined_offers, 0u);
  EXPECT_EQ(result.stats.offer_retries, result.stats.input_offers);
  EXPECT_TRUE(ProductsEqual(clean_result.products, result.products));
}

TEST_F(ChaosWorld, PersistentFaultsExhaustRetriesIntoLedger) {
  if (!PRODSYN_FAULT_INJECTION_IS_ON()) {
    GTEST_SKIP() << "fault injection compiled out in this build";
  }
  SynthesizerOptions options;
  options.error_policy = ErrorPolicy::kQuarantine;
  options.quarantine_retries = 2;
  options.runtime_threads = 2;
  auto synthesizer = MakeLearned(options);
  FaultSpec spec;  // keyed faults are persistent: same key always fails
  spec.probability = 0.1;
  spec.seed = 99;
  FaultInjector::Global().Arm("runtime.extraction", spec);
  auto result =
      *synthesizer.Synthesize(world_->incoming_offers, world_->pages);
  FaultInjector::Global().Reset();
  ASSERT_NE(result.ledger, nullptr);
  ASSERT_GT(result.ledger->size(), 0u);
  for (const ErrorLedgerEntry& entry : result.ledger->entries()) {
    EXPECT_EQ(entry.retries, options.quarantine_retries);
  }
  EXPECT_EQ(result.stats.offer_retries,
            options.quarantine_retries * result.ledger->size());
}

TEST_F(ChaosWorld, FailFastStillAbortsOnInjectedFault) {
  if (!PRODSYN_FAULT_INJECTION_IS_ON()) {
    GTEST_SKIP() << "fault injection compiled out in this build";
  }
  SynthesizerOptions options;  // kFailFast default
  options.runtime_threads = 2;
  auto synthesizer = MakeLearned(options);
  FaultSpec spec;
  spec.code = StatusCode::kIOError;
  FaultInjector::Global().Arm("runtime.extraction", spec);
  auto result =
      synthesizer.Synthesize(world_->incoming_offers, world_->pages);
  FaultInjector::Global().Reset();
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsIOError()) << result.status();
}

TEST_F(ChaosWorld, ProvenanceRecordsFaultDropReason) {
  if (!PRODSYN_FAULT_INJECTION_IS_ON()) {
    GTEST_SKIP() << "fault injection compiled out in this build";
  }
  SynthesizerOptions options;
  options.error_policy = ErrorPolicy::kQuarantine;
  options.record_provenance = true;
  options.runtime_threads = 2;
  auto synthesizer = MakeLearned(options);
  FaultSpec spec;
  spec.probability = 0.15;
  spec.seed = 7;
  FaultInjector::Global().Arm("runtime.extraction", spec);
  auto result =
      *synthesizer.Synthesize(world_->incoming_offers, world_->pages);
  FaultInjector::Global().Reset();
  ASSERT_NE(result.ledger, nullptr);
  ASSERT_GT(result.ledger->size(), 0u);
  ASSERT_NE(result.provenance, nullptr);
  size_t fault_drops = 0;
  for (const OfferProvenance& prov : result.provenance->offers) {
    if (prov.drop == DropReason::kFault) ++fault_drops;
  }
  EXPECT_EQ(fault_drops, result.ledger->size());
  EXPECT_STREQ(DropReasonName(DropReason::kFault), "fault");
  EXPECT_STREQ(DropReasonName(DropReason::kCancelled), "cancelled");
}

// Serves each page only after a sleep, so a deadline always lands
// mid-run.
class SlowPages : public LandingPageProvider {
 public:
  SlowPages(const LandingPageProvider* inner, uint64_t delay_ms)
      : inner_(inner), delay_ms_(delay_ms) {}
  Result<std::string> Fetch(const std::string& url) const override {
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms_));
    return inner_->Fetch(url);
  }

 private:
  const LandingPageProvider* inner_;
  uint64_t delay_ms_;
};

TEST_F(ChaosWorld, DeadlineReturnsPartialResultWithinTwiceDeadline) {
  constexpr uint64_t kDeadlineMs = 250;
  SynthesizerOptions options;
  options.runtime_threads = 2;
  options.deadline = std::chrono::milliseconds(kDeadlineMs);
  auto synthesizer = MakeLearned(options);
  const size_t n = world_->incoming_offers.size();
  ASSERT_GT(n, 0u);
  // Per-fetch delay sized so the full run would need ~4x the deadline:
  // the cut is guaranteed to land mid-run on any machine.
  const uint64_t delay_ms =
      std::max<uint64_t>(1, 4 * kDeadlineMs * options.runtime_threads / n);
  SlowPages slow_pages(&world_->pages, delay_ms);

  const auto start = std::chrono::steady_clock::now();
  auto result = synthesizer.Synthesize(world_->incoming_offers, slow_pages);
  const auto elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start)
          .count();

  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(result->complete);
  EXPECT_GT(result->stats.cancelled_offers, 0u);
  EXPECT_EQ(result->stats.input_offers, n);
  // The overrun is bounded by in-flight work (one fetch per worker), far
  // under one extra deadline's worth.
  EXPECT_LT(elapsed_ms, static_cast<int64_t>(2 * kDeadlineMs));
  // The deadline gauge is surfaced for dashboards.
  bool found_gauge = false;
  for (const auto& gauge : result->stats.registry.gauges) {
    if (gauge.name == "runtime.deadline_exceeded") {
      found_gauge = true;
      EXPECT_EQ(gauge.value, 1);
    }
  }
  EXPECT_TRUE(found_gauge);
}

TEST_F(ChaosWorld, PreCancelledTokenYieldsEmptyPartialResult) {
  CancellationToken token;
  SynthesizerOptions options;
  options.runtime_threads = 2;
  options.cancellation = &token;
  auto synthesizer = MakeLearned(options);  // cancel only the run-time phase
  token.Cancel();
  auto result =
      *synthesizer.Synthesize(world_->incoming_offers, world_->pages);
  EXPECT_FALSE(result.complete);
  EXPECT_TRUE(result.products.empty());
  EXPECT_EQ(result.stats.cancelled_offers, result.stats.input_offers);
}

TEST_F(ChaosWorld, OfflineLearningHonorsCancellation) {
  CancellationToken token;
  token.Cancel();
  SynthesizerOptions options;
  options.cancellation = &token;
  ProductSynthesizer synthesizer(&world_->catalog, options);
  Status st = synthesizer.LearnOffline(world_->historical_offers,
                                       world_->historical_matches);
  EXPECT_TRUE(st.IsCancelled()) << st;
}

}  // namespace
}  // namespace prodsyn
