// Determinism tests for the parallel offline learning path: the bag-index
// build, the classifier's offline run, and the title-match bootstrap must
// be bit-identical across thread counts {1, 2, hardware} — the offline
// half of the repo's determinism contract (docs/ARCHITECTURE.md). Also
// covers the stage-metrics snapshots the offline stages now emit.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/datagen/world.h"
#include "src/matching/bag_index.h"
#include "src/matching/classifier_matcher.h"
#include "src/matching/title_matcher.h"
#include "src/pipeline/synthesizer.h"
#include "src/util/sched_stats.h"
#include "src/util/thread_pool.h"

namespace prodsyn {
namespace {

class OfflineParallelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    WorldConfig config;
    config.seed = 77;
    config.categories_per_archetype = 1;
    config.merchants = 20;
    config.products_per_category = 10;
    world_ = std::make_unique<World>(*World::Generate(config));
    ctx_.catalog = &world_->catalog;
    ctx_.offers = &world_->historical_offers;
    ctx_.matches = &world_->historical_matches;
  }

  // The thread counts of the determinism contract: sequential, a fixed
  // parallel count, and whatever the hardware resolves 0 to.
  static std::vector<size_t> ThreadCounts() { return {1, 2, 0}; }

  std::unique_ptr<World> world_;
  MatchingContext ctx_;
};

// Every bag, distribution, and candidate of the index must be identical
// for any build_threads; candidate order must match the sequential build.
TEST_F(OfflineParallelTest, BagIndexBuildIsThreadCountInvariant) {
  BagIndexOptions reference_options;
  reference_options.build_threads = 1;
  auto reference = *MatchedBagIndex::Build(ctx_, reference_options);
  ASSERT_FALSE(reference.candidates().empty());

  for (size_t threads : ThreadCounts()) {
    BagIndexOptions options;
    options.build_threads = threads;
    auto index = *MatchedBagIndex::Build(ctx_, options);

    ASSERT_EQ(index.candidates().size(), reference.candidates().size())
        << "threads=" << threads;
    for (size_t i = 0; i < index.candidates().size(); ++i) {
      EXPECT_TRUE(index.candidates()[i] == reference.candidates()[i])
          << "candidate " << i << " at threads=" << threads;
    }
    EXPECT_EQ(index.bag_count(), reference.bag_count());
    EXPECT_EQ(index.merchant_categories(), reference.merchant_categories());
    EXPECT_EQ(index.interner().size(), reference.interner().size());

    // Bag contents and distribution values must agree bit-for-bit at all
    // three levels for every candidate's attribute pair.
    for (const auto& tuple : reference.candidates()) {
      for (GroupLevel level :
           {GroupLevel::kMerchantCategory, GroupLevel::kCategory,
            GroupLevel::kMerchant}) {
        const BagOfWords* ref_bag = reference.ProductBag(
            level, tuple.catalog_attribute, tuple.merchant, tuple.category);
        const BagOfWords* got_bag = index.ProductBag(
            level, tuple.catalog_attribute, tuple.merchant, tuple.category);
        ASSERT_EQ(ref_bag == nullptr, got_bag == nullptr);
        if (ref_bag != nullptr) {
          EXPECT_EQ(got_bag->counts(), ref_bag->counts());
        }
        const TermDistribution* ref_dist = reference.OfferDist(
            level, tuple.offer_attribute, tuple.merchant, tuple.category);
        const TermDistribution* got_dist = index.OfferDist(
            level, tuple.offer_attribute, tuple.merchant, tuple.category);
        ASSERT_EQ(ref_dist == nullptr, got_dist == nullptr);
        if (ref_dist != nullptr) {
          EXPECT_EQ(got_dist->probabilities(), ref_dist->probabilities());
        }
      }
    }
  }
}

// The full offline run (bag index + training + LR + scoring sweep) must
// produce identical correspondences and stats for any offline_threads.
TEST_F(OfflineParallelTest, ClassifierOfflineRunIsThreadCountInvariant) {
  ClassifierMatcherOptions reference_options;
  reference_options.offline_threads = 1;
  ClassifierMatcher reference_matcher(reference_options);
  const auto reference = *reference_matcher.Generate(ctx_);

  for (size_t threads : ThreadCounts()) {
    ClassifierMatcherOptions options;
    options.offline_threads = threads;
    ClassifierMatcher matcher(options);
    const auto got = *matcher.Generate(ctx_);
    ASSERT_EQ(got.size(), reference.size()) << "threads=" << threads;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_TRUE(got[i].tuple == reference[i].tuple) << i;
      EXPECT_EQ(got[i].score, reference[i].score) << i;  // bit-identical
    }
    EXPECT_EQ(matcher.stats().candidates, reference_matcher.stats().candidates);
    EXPECT_EQ(matcher.stats().predicted_valid,
              reference_matcher.stats().predicted_valid);
    EXPECT_EQ(matcher.stats().training_examples,
              reference_matcher.stats().training_examples);
  }
}

TEST_F(OfflineParallelTest, ClassifierStatsCarryOfflineStageSnapshots) {
  ClassifierMatcherOptions options;
  options.offline_threads = 2;
  ClassifierMatcher matcher(options);
  ASSERT_TRUE(matcher.Generate(ctx_).ok());
  const auto& stages = matcher.stats().stage_metrics;
  ASSERT_EQ(stages.size(), 4u);
  EXPECT_EQ(stages[0].name, "bag_index.build");
  EXPECT_EQ(stages[1].name, "lr.train");
  EXPECT_EQ(stages[2].name, "lr.epoch");
  EXPECT_EQ(stages[3].name, "classifier.score");
  // Items are deterministic: offers scanned, examples, candidates.
  EXPECT_GT(stages[0].items, 0u);
  EXPECT_EQ(stages[1].items, matcher.stats().training_examples);
  EXPECT_EQ(stages[3].items, matcher.stats().candidates);
  // The per-epoch histogram records exactly one latency observation per
  // training iteration.
  EXPECT_EQ(stages[2].latency.count, matcher.stats().lr_iterations);
  EXPECT_GT(matcher.stats().lr_iterations, 0u);

  // The iteration gauge rides along in the registry.
  bool saw_iterations = false;
  for (const auto& gauge : matcher.stats().registry.gauges) {
    if (gauge.name == "lr.iterations_used") {
      saw_iterations = true;
      EXPECT_EQ(gauge.value,
                static_cast<int64_t>(matcher.stats().lr_iterations));
    }
  }
  EXPECT_TRUE(saw_iterations);
}

// Generate runs the bag-index build, the LR passes and the scoring sweep
// on its one pool, so the published scheduler snapshot carries all three
// regions.
TEST_F(OfflineParallelTest, SchedSnapshotCoversEveryOfflineRegion) {
  const bool was_enabled = SchedulerStats::enabled();
  SchedulerStats::Enable();
  ClassifierMatcherOptions options;
  options.offline_threads = 4;
  ClassifierMatcher matcher(options);
  const bool ok = matcher.Generate(ctx_).ok();
  if (!was_enabled) SchedulerStats::Disable();
  ASSERT_TRUE(ok);

  std::map<std::string, int64_t> gauges;
  for (const auto& gauge : matcher.stats().registry.gauges) {
    gauges[gauge.name] = gauge.value;
  }
  EXPECT_EQ(gauges["offline.threads"], 4);
  EXPECT_EQ(gauges["pool.workers"], 4);
  for (const std::string region :
       {"bag_index.build", "lr.epoch", "classifier.score"}) {
    SCOPED_TRACE(region);
    const std::string base = "region." + region + ".";
    ASSERT_TRUE(gauges.count(base + "invocations"));
    EXPECT_GT(gauges[base + "invocations"], 0);
    EXPECT_GT(gauges[base + "chunks"], 0);
    EXPECT_GT(gauges[base + "wall_ns"], 0);
    EXPECT_GE(gauges[base + "imbalance_permille"], 1000);
  }
  // Tokenize groups, profile products, and one distribution sweep per
  // side: four fan-outs per build.
  EXPECT_EQ(gauges["region.bag_index.build.invocations"], 4);
  EXPECT_EQ(gauges["region.lr.epoch.invocations"],
            static_cast<int64_t>(matcher.stats().lr_iterations));
}

// The bootstrapped MatchStore and its counter stats must be identical for
// any TitleMatcherOptions::threads.
TEST_F(OfflineParallelTest, TitleMatchBootstrapIsThreadCountInvariant) {
  TitleMatcherOptions reference_options;
  reference_options.threads = 1;
  TitleMatcherStats reference_stats;
  const MatchStore reference =
      *TitleOfferProductMatcher(reference_options)
           .Match(world_->catalog, world_->historical_offers,
                  &reference_stats);
  ASSERT_GT(reference_stats.matches_made, 0u);

  for (size_t threads : ThreadCounts()) {
    TitleMatcherOptions options;
    options.threads = threads;
    TitleMatcherStats stats;
    const MatchStore got =
        *TitleOfferProductMatcher(options).Match(
            world_->catalog, world_->historical_offers, &stats);
    EXPECT_EQ(stats.offers_considered, reference_stats.offers_considered);
    EXPECT_EQ(stats.offers_with_candidates,
              reference_stats.offers_with_candidates);
    EXPECT_EQ(stats.matches_made, reference_stats.matches_made);
    ASSERT_EQ(got.matches().size(), reference.matches().size());
    for (const auto& [offer, product] : reference.matches()) {
      EXPECT_EQ(got.ProductOf(offer), product) << "offer " << offer;
    }
    ASSERT_EQ(stats.stage_metrics.size(), 1u);
    EXPECT_EQ(stats.stage_metrics[0].name, "title_match.bootstrap");
    EXPECT_EQ(stats.stage_metrics[0].items, stats.offers_considered);
  }
}

// offline_threads plumbs from SynthesizerOptions through LearnOffline.
TEST_F(OfflineParallelTest, SynthesizerOfflineThreadsKnobIsDeterministic) {
  std::vector<AttributeCorrespondence> reference;
  for (size_t threads : ThreadCounts()) {
    SynthesizerOptions options;
    options.offline_threads = threads;
    ProductSynthesizer synthesizer(&world_->catalog, options);
    ASSERT_TRUE(synthesizer
                    .LearnOffline(world_->historical_offers,
                                  world_->historical_matches)
                    .ok());
    if (reference.empty()) {
      reference = synthesizer.correspondences();
      ASSERT_FALSE(reference.empty());
      continue;
    }
    const auto& got = synthesizer.correspondences();
    ASSERT_EQ(got.size(), reference.size()) << "threads=" << threads;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_TRUE(got[i].tuple == reference[i].tuple) << i;
      EXPECT_EQ(got[i].score, reference[i].score) << i;
    }
  }
}

}  // namespace
}  // namespace prodsyn
