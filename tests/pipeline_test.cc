#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <tuple>

#include "src/datagen/world.h"
#include "src/pipeline/attribute_extraction.h"
#include "src/pipeline/clustering.h"
#include "src/pipeline/schema_reconciliation.h"
#include "src/pipeline/synthesizer.h"
#include "src/pipeline/title_classifier.h"
#include "src/pipeline/value_fusion.h"
#include "src/util/random.h"
#include "src/util/sched_stats.h"
#include "src/util/thread_pool.h"

namespace prodsyn {
namespace {

// ---------- Title classifier ----------

TEST(TitleClassifierTest, ClassifiesByVocabulary) {
  TitleClassifier classifier;
  classifier.AddExample(1, "Seagate Barracuda 500GB SATA Hard Drive");
  classifier.AddExample(1, "Hitachi Deskstar 7200rpm HDD");
  classifier.AddExample(2, "Canon EOS 12MP Digital Camera");
  classifier.AddExample(2, "Nikon Coolpix 10x zoom camera");
  EXPECT_EQ(*classifier.Classify("WD 250GB SATA Hard Drive"), 1);
  EXPECT_EQ(*classifier.Classify("Olympus 14MP camera 5x zoom"), 2);
  EXPECT_EQ(classifier.category_count(), 2u);
}

TEST(TitleClassifierTest, ErrorsWithoutTraining) {
  TitleClassifier classifier;
  EXPECT_TRUE(classifier.Classify("x").status().IsFailedPrecondition());
}

TEST(TitleClassifierTest, TrainOnStoreSkipsUncategorized) {
  OfferStore store;
  Offer a;
  a.merchant = 0;
  a.category = 3;
  a.title = "drive";
  ASSERT_TRUE(store.AddOffer(a).ok());
  Offer b;
  b.merchant = 0;
  b.category = kInvalidCategory;
  b.title = "mystery";
  ASSERT_TRUE(store.AddOffer(b).ok());
  TitleClassifier classifier;
  EXPECT_EQ(classifier.TrainOnStore(store), 1u);
}

// ---------- Attribute extraction ----------

class MapPages : public LandingPageProvider {
 public:
  void Add(std::string url, std::string html) {
    pages_[std::move(url)] = std::move(html);
  }
  Result<std::string> Fetch(const std::string& url) const override {
    auto it = pages_.find(url);
    if (it == pages_.end()) return Status::NotFound("no page");
    return it->second;
  }

 private:
  std::unordered_map<std::string, std::string> pages_;
};

TEST(AttributeExtractionTest, MergesFeedAndPagePairs) {
  MapPages pages;
  pages.Add("http://m/x",
            "<table><tr><td>Brand</td><td>Sony</td></tr>"
            "<tr><td>Zoom</td><td>10x</td></tr></table>");
  Offer offer;
  offer.url = "http://m/x";
  offer.spec = {{"Brand", "Sony"}, {"Color", "Black"}};
  auto spec = *ExtractOfferSpecification(offer, pages);
  // Feed pairs first, then page pairs minus the exact duplicate.
  ASSERT_EQ(spec.size(), 3u);
  EXPECT_EQ(spec[0], (AttributeValue{"Brand", "Sony"}));
  EXPECT_EQ(spec[1], (AttributeValue{"Color", "Black"}));
  EXPECT_EQ(spec[2], (AttributeValue{"Zoom", "10x"}));
}

TEST(AttributeExtractionTest, DeadLinkFallsBackToFeedSpec) {
  MapPages pages;
  Offer offer;
  offer.url = "http://gone";
  offer.spec = {{"Brand", "Asus"}};
  auto spec = *ExtractOfferSpecification(offer, pages);
  ASSERT_EQ(spec.size(), 1u);
  EXPECT_EQ(spec[0].name, "Brand");
}

// ---------- Schema reconciliation ----------

TEST(SchemaReconcilerTest, AppliesBestCorrespondenceAndDiscardsRest) {
  std::vector<AttributeCorrespondence> corrs = {
      {{"Capacity", "Hard Disk Size", 1, 2}, 0.9},
      {{"Buffer Size", "Hard Disk Size", 1, 2}, 0.7},  // loses to Capacity
      {{"Speed", "RPM", 1, 2}, 0.8},
      {{"Brand", "Make", 1, 2}, 0.4},  // below theta
  };
  SchemaReconciler reconciler(corrs, 0.5);
  EXPECT_EQ(reconciler.mapping_count(), 2u);
  Specification extracted = {{"Hard Disk Size", "500GB"},
                             {"RPM", "7200"},
                             {"Make", "Seagate"},
                             {"Shipping", "Free"}};
  const Specification reconciled = reconciler.Reconcile(1, 2, extracted);
  ASSERT_EQ(reconciled.size(), 2u);
  EXPECT_EQ(reconciled[0], (AttributeValue{"Capacity", "500GB"}));
  EXPECT_EQ(reconciled[1], (AttributeValue{"Speed", "7200"}));
}

TEST(SchemaReconcilerTest, MappingsAreScopedToMerchantAndCategory) {
  std::vector<AttributeCorrespondence> corrs = {
      {{"Capacity", "Size", 1, 2}, 0.9}};
  SchemaReconciler reconciler(corrs, 0.5);
  Specification extracted = {{"Size", "500GB"}};
  EXPECT_EQ(reconciler.Reconcile(1, 2, extracted).size(), 1u);
  EXPECT_TRUE(reconciler.Reconcile(2, 2, extracted).empty());
  EXPECT_TRUE(reconciler.Reconcile(1, 3, extracted).empty());
}

TEST(SchemaReconcilerTest, EqualScoresBreakTiesByName) {
  std::vector<AttributeCorrespondence> corrs = {
      {{"Zeta", "X", 0, 0}, 0.9},
      {{"Alpha", "X", 0, 0}, 0.9},
  };
  SchemaReconciler reconciler(corrs, 0.5);
  const auto out = reconciler.Reconcile(0, 0, {{"X", "v"}});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].name, "Alpha");
}

TEST(SchemaReconcilerTest, MatchesStringKeyedReference) {
  // Seeded correspondences on a small (M, C, attribute) grid with scores
  // on a coarse grid, so winners tie often; names include the byte the
  // old concatenated string key used as its separator.
  const std::vector<std::string> offer_attrs = {"Size", "size", "Make",
                                                "a\x1f" "b", "", "RPM"};
  const std::vector<std::string> catalog_attrs = {"Brand", "Capacity",
                                                  "Speed"};
  Rng rng(77);
  std::vector<AttributeCorrespondence> corrs;
  for (int i = 0; i < 600; ++i) {
    CandidateTuple tuple;
    tuple.catalog_attribute = catalog_attrs[rng.NextBelow(3)];
    tuple.offer_attribute = offer_attrs[rng.NextBelow(offer_attrs.size())];
    tuple.merchant = static_cast<MerchantId>(rng.NextBelow(4));
    tuple.category = static_cast<CategoryId>(rng.NextBelow(3));
    corrs.push_back({tuple, static_cast<double>(rng.NextBelow(9)) / 8.0});
  }
  // The reference: the same rule over a map keyed by the (M, C, name)
  // tuple itself.
  using Key = std::tuple<MerchantId, CategoryId, std::string>;
  std::map<Key, std::pair<std::string, double>> winners;
  std::map<Key, std::vector<ReconciliationCandidate>> candidates;
  for (const auto& c : corrs) {
    const Key key{c.tuple.merchant, c.tuple.category, c.tuple.offer_attribute};
    candidates[key].push_back({c.tuple.offer_attribute,
                               c.tuple.catalog_attribute, c.score, false});
    if (c.score <= 0.5) continue;
    auto it = winners.find(key);
    if (it == winners.end() || c.score > it->second.second ||
        (c.score == it->second.second &&
         c.tuple.catalog_attribute < it->second.first)) {
      winners[key] = {c.tuple.catalog_attribute, c.score};
    }
  }
  const SchemaReconciler reconciler(corrs, 0.5, /*keep_candidates=*/true);
  const SchemaReconciler plain(corrs, 0.5);
  EXPECT_EQ(reconciler.mapping_count(), winners.size());
  EXPECT_EQ(plain.mapping_count(), winners.size());

  Specification extracted;
  for (const auto& name : offer_attrs) {
    extracted.push_back({name, "v-" + name});
  }
  extracted.push_back({"never seen", "x"});
  for (MerchantId m = 0; m < 5; ++m) {
    for (CategoryId c = 0; c < 4; ++c) {
      Specification expected;
      for (const auto& av : extracted) {
        auto it = winners.find(Key{m, c, av.name});
        if (it == winners.end()) continue;
        expected.push_back({it->second.first, av.value});
      }
      EXPECT_EQ(reconciler.Reconcile(m, c, extracted), expected);
      EXPECT_EQ(plain.Reconcile(m, c, extracted), expected);
      for (const auto& av : extracted) {
        auto it = candidates.find(Key{m, c, av.name});
        const auto got = reconciler.CandidatesFor(m, c, av.name, 100);
        if (it == candidates.end()) {
          EXPECT_TRUE(got.empty());
          continue;
        }
        auto want = it->second;
        std::sort(want.begin(), want.end(),
                  [](const ReconciliationCandidate& a,
                     const ReconciliationCandidate& b) {
                    if (a.score != b.score) return a.score > b.score;
                    return a.catalog_attribute < b.catalog_attribute;
                  });
        ASSERT_EQ(got.size(), want.size());
        auto winner = winners.find(Key{m, c, av.name});
        bool marked = false;
        for (size_t i = 0; i < want.size(); ++i) {
          EXPECT_EQ(got[i].catalog_attribute, want[i].catalog_attribute);
          EXPECT_EQ(got[i].score, want[i].score);
          const bool applied =
              !marked && winner != winners.end() &&
              want[i].catalog_attribute == winner->second.first &&
              want[i].score == winner->second.second;
          marked = marked || applied;
          EXPECT_EQ(got[i].applied, applied) << i;
        }
      }
    }
  }
}

TEST(SchemaReconcilerTest, UnknownNamesAreDropped) {
  const std::vector<AttributeCorrespondence> corrs = {
      {{"Capacity", "Size", 1, 2}, 0.9}};
  const SchemaReconciler reconciler(corrs, 0.5, /*keep_candidates=*/true);
  for (int round = 0; round < 2; ++round) {
    EXPECT_TRUE(reconciler.Reconcile(1, 2, {{"Weight", "2kg"}}).empty());
    EXPECT_TRUE(reconciler.CandidatesFor(1, 2, "Weight", 5).empty());
  }
  EXPECT_EQ(reconciler.mapping_count(), 1u);
  EXPECT_EQ(reconciler.Reconcile(1, 2, {{"Size", "1TB"}}),
            (Specification{{"Capacity", "1TB"}}));
}

// ---------- Clustering ----------

SchemaRegistry MakeSchemas() {
  SchemaRegistry schemas;
  CategorySchema schema(1);
  EXPECT_TRUE(schema.AddAttribute({"Model Part Number",
                                   AttributeKind::kIdentifier, true}).ok());
  EXPECT_TRUE(
      schema.AddAttribute({"UPC", AttributeKind::kIdentifier, true}).ok());
  EXPECT_TRUE(
      schema.AddAttribute({"Brand", AttributeKind::kCategorical, false}).ok());
  EXPECT_TRUE(schemas.Register(std::move(schema)).ok());
  return schemas;
}

ReconciledOffer MakeOffer(OfferId id, CategoryId category,
                          Specification spec) {
  ReconciledOffer offer;
  offer.offer_id = id;
  offer.merchant = 0;
  offer.category = category;
  offer.spec = std::move(spec);
  return offer;
}

TEST(ClusteringTest, GroupsByNormalizedKey) {
  const SchemaRegistry schemas = MakeSchemas();
  std::vector<ReconciledOffer> offers = {
      MakeOffer(0, 1, {{"Model Part Number", "WD-1600JS"}}),
      MakeOffer(1, 1, {{"Model Part Number", "wd 1600 js"}}),
      MakeOffer(2, 1, {{"Model Part Number", "OTHER-1"}}),
  };
  size_t dropped = 99;
  auto clusters = *ClusterByKey(offers, schemas, {}, &dropped);
  EXPECT_EQ(dropped, 0u);
  ASSERT_EQ(clusters.size(), 2u);
  // Deterministic (category, key) order: OTHER1 < WD1600JS.
  EXPECT_EQ(clusters[0].key, "OTHER1");
  EXPECT_EQ(clusters[1].key, "WD1600JS");
  EXPECT_EQ(clusters[1].members.size(), 2u);
}

TEST(ClusteringTest, FallsBackToSecondKeyAttribute) {
  const SchemaRegistry schemas = MakeSchemas();
  std::vector<ReconciledOffer> offers = {
      MakeOffer(0, 1, {{"UPC", "012345678905"}}),
      MakeOffer(1, 1, {{"Brand", "Seagate"}}),  // no key at all
  };
  size_t dropped = 0;
  auto clusters = *ClusterByKey(offers, schemas, {}, &dropped);
  EXPECT_EQ(dropped, 1u);
  ASSERT_EQ(clusters.size(), 1u);
  EXPECT_EQ(clusters[0].key, "012345678905");
}

TEST(ClusteringTest, UncategorizedOffersAreDropped) {
  const SchemaRegistry schemas = MakeSchemas();
  std::vector<ReconciledOffer> offers = {
      MakeOffer(0, kInvalidCategory, {{"Model Part Number", "X1"}})};
  size_t dropped = 0;
  auto clusters = *ClusterByKey(offers, schemas, {}, &dropped);
  EXPECT_TRUE(clusters.empty());
  EXPECT_EQ(dropped, 1u);
}

TEST(ClusteringTest, UnknownSchemaUsesFallbackKeys) {
  SchemaRegistry empty_schemas;
  std::vector<ReconciledOffer> offers = {
      MakeOffer(0, 9, {{"Model Part Number", "ABC-1"}})};
  auto clusters = *ClusterByKey(offers, empty_schemas);
  ASSERT_EQ(clusters.size(), 1u);
  EXPECT_EQ(clusters[0].key, "ABC1");
}

TEST(ClusteringTest, SameKeyDifferentCategoriesStaySeparate) {
  SchemaRegistry empty_schemas;
  std::vector<ReconciledOffer> offers = {
      MakeOffer(0, 1, {{"Model Part Number", "K1"}}),
      MakeOffer(1, 2, {{"Model Part Number", "K1"}}),
  };
  auto clusters = *ClusterByKey(offers, empty_schemas);
  EXPECT_EQ(clusters.size(), 2u);
}

// ---------- Value fusion ----------

TEST(ValueFusionTest, SingleTokenMajorityVote) {
  EXPECT_EQ(FuseValues({"1024", "1024", "1024", "1024", "2048"}), "1024");
}

TEST(ValueFusionTest, AppendixAWindowsVistaExample) {
  // Appendix A: the centroid of {"Windows Vista", "Microsoft Windows
  // Vista", "Microsoft Vista"} is closest to "Microsoft Windows Vista".
  EXPECT_EQ(FuseValues({"Windows Vista", "Microsoft Windows Vista",
                        "Microsoft Vista"}),
            "Microsoft Windows Vista");
}

TEST(ValueFusionTest, SingleValuePassesThrough) {
  EXPECT_EQ(FuseValues({"only"}), "only");
  EXPECT_EQ(FuseValues({}), "");
}

TEST(ValueFusionTest, TieBreaksLexicographically) {
  // Two distinct singleton values: equidistant, pick the smaller.
  EXPECT_EQ(FuseValues({"beta", "alpha"}), "alpha");
}

TEST(ValueFusionTest, PunctuationOnlyValuesFallBackToMajority) {
  EXPECT_EQ(FuseValues({"!!", "!!", "??"}), "!!");
}

TEST(FuseClusterTest, FusesPerSchemaAttribute) {
  CategorySchema schema(1);
  ASSERT_TRUE(schema.AddAttribute({"Brand", AttributeKind::kCategorical,
                                   false}).ok());
  ASSERT_TRUE(schema.AddAttribute({"Capacity", AttributeKind::kNumeric,
                                   false}).ok());
  ASSERT_TRUE(schema.AddAttribute({"Speed", AttributeKind::kNumeric,
                                   false}).ok());
  OfferCluster cluster;
  cluster.category = 1;
  cluster.key = "K";
  cluster.members = {
      MakeOffer(0, 1, {{"Brand", "Seagate"}, {"Capacity", "500 GB"}}),
      MakeOffer(1, 1, {{"Brand", "Seagate"}, {"Capacity", "500GB"}}),
      MakeOffer(2, 1, {{"Brand", "SEAGATE"}}),
  };
  const Specification fused = *FuseCluster(cluster, schema);
  // Schema order; Speed absent because no member provides it.
  ASSERT_EQ(fused.size(), 2u);
  EXPECT_EQ(fused[0].name, "Brand");
  EXPECT_EQ(fused[0].value, "Seagate");
  EXPECT_EQ(fused[1].name, "Capacity");
}

TEST(FuseClusterTest, EmptyClusterIsError) {
  CategorySchema schema(1);
  OfferCluster cluster;
  EXPECT_TRUE(FuseCluster(cluster, schema).status().IsInvalidArgument());
}

// ---------- Parallel clustering ----------

TEST(ClusteringTest, PooledKeyExtractionMatchesSequential) {
  SchemaRegistry empty_schemas;
  std::vector<ReconciledOffer> offers;
  for (OfferId id = 0; id < 200; ++id) {
    offers.push_back(MakeOffer(
        id, 1 + static_cast<CategoryId>(id % 3),
        {{"Model Part Number", "K-" + std::to_string(id % 40)}}));
  }
  size_t dropped_seq = 0;
  auto sequential = *ClusterByKey(offers, empty_schemas, {}, &dropped_seq);
  ThreadPool pool(3);
  size_t dropped_par = 0;
  auto parallel =
      *ClusterByKey(offers, empty_schemas, {}, &dropped_par, &pool);
  EXPECT_EQ(dropped_seq, dropped_par);
  ASSERT_EQ(sequential.size(), parallel.size());
  for (size_t i = 0; i < sequential.size(); ++i) {
    EXPECT_EQ(sequential[i].category, parallel[i].category);
    EXPECT_EQ(sequential[i].key, parallel[i].key);
    ASSERT_EQ(sequential[i].members.size(), parallel[i].members.size());
    for (size_t j = 0; j < sequential[i].members.size(); ++j) {
      EXPECT_EQ(sequential[i].members[j].offer_id,
                parallel[i].members[j].offer_id);
    }
  }
}

// ---------- Run-time phase determinism across thread counts ----------

// The tentpole contract: Synthesize() products AND stats counters are
// bit-identical for runtime_threads = 1, 2, and hardware default on the
// same world (mirroring ClassifierMatcherOptions::offline_threads).
TEST(SynthesizeDeterminismTest, IdenticalAcrossRuntimeThreadCounts) {
  WorldConfig config;
  config.seed = 77;
  config.categories_per_archetype = 1;
  config.merchants = 25;
  config.products_per_category = 12;
  const World world = *World::Generate(config);

  auto run = [&world](size_t runtime_threads) {
    SynthesizerOptions options;
    options.runtime_threads = runtime_threads;
    ProductSynthesizer synthesizer(&world.catalog, options);
    EXPECT_TRUE(synthesizer
                    .LearnOffline(world.historical_offers,
                                  world.historical_matches)
                    .ok());
    return *synthesizer.Synthesize(world.incoming_offers, world.pages);
  };

  const SynthesisResult base = run(1);
  ASSERT_GT(base.products.size(), 0u);
  // Stage metrics are attached in pipeline order regardless of threading.
  ASSERT_EQ(base.stats.stage_metrics.size(), 5u);
  EXPECT_EQ(base.stats.stage_metrics[1].name, "extraction");
  EXPECT_EQ(base.stats.stage_metrics[1].items, base.stats.input_offers);

  for (const size_t threads : {size_t{2}, size_t{0}}) {
    const SynthesisResult other = run(threads);
    // Stats counters: every deterministic field must match exactly.
    EXPECT_EQ(base.stats.input_offers, other.stats.input_offers);
    EXPECT_EQ(base.stats.offers_with_extracted_pairs,
              other.stats.offers_with_extracted_pairs);
    EXPECT_EQ(base.stats.extracted_pairs, other.stats.extracted_pairs);
    EXPECT_EQ(base.stats.reconciled_pairs, other.stats.reconciled_pairs);
    EXPECT_EQ(base.stats.offers_without_key, other.stats.offers_without_key);
    EXPECT_EQ(base.stats.clusters, other.stats.clusters);
    EXPECT_EQ(base.stats.synthesized_products,
              other.stats.synthesized_products);
    EXPECT_EQ(base.stats.synthesized_attributes,
              other.stats.synthesized_attributes);
    EXPECT_EQ(base.stats.correspondences_applied,
              other.stats.correspondences_applied);
    // Products: same order, same content, same provenance.
    ASSERT_EQ(base.products.size(), other.products.size());
    for (size_t i = 0; i < base.products.size(); ++i) {
      EXPECT_EQ(base.products[i].category, other.products[i].category);
      EXPECT_EQ(base.products[i].key, other.products[i].key);
      EXPECT_EQ(base.products[i].spec, other.products[i].spec);
      EXPECT_EQ(base.products[i].source_offers,
                other.products[i].source_offers);
    }
  }
}

// The observability acceptance bar: scheduler accounting ON must leave
// the synthesized products bit-identical across {1, 2, 3, 4, hardware}
// threads (and so across their chunk plans), while the parallel runs'
// stats registries gain the pool.*/region.* gauges.
TEST(SynthesizeDeterminismTest, SchedStatsAccountingIsNonIntrusive) {
  WorldConfig config;
  config.seed = 77;
  config.categories_per_archetype = 1;
  config.merchants = 25;
  config.products_per_category = 12;
  const World world = *World::Generate(config);

  const bool was_enabled = SchedulerStats::enabled();
  SchedulerStats::Disable();
  auto run = [&world](size_t runtime_threads) {
    SynthesizerOptions options;
    options.runtime_threads = runtime_threads;
    ProductSynthesizer synthesizer(&world.catalog, options);
    EXPECT_TRUE(synthesizer
                    .LearnOffline(world.historical_offers,
                                  world.historical_matches)
                    .ok());
    return *synthesizer.Synthesize(world.incoming_offers, world.pages);
  };
  // Reference with accounting OFF: the layer must not change the output
  // relative to a world that never heard of it.
  const SynthesisResult base = run(1);
  ASSERT_GT(base.products.size(), 0u);

  SchedulerStats::Enable();
  for (const size_t threads :
       {size_t{1}, size_t{2}, size_t{3}, size_t{4}, size_t{0}}) {
    const SynthesisResult other = run(threads);
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    EXPECT_EQ(base.stats.synthesized_products,
              other.stats.synthesized_products);
    EXPECT_EQ(base.stats.clusters, other.stats.clusters);
    ASSERT_EQ(base.products.size(), other.products.size());
    for (size_t i = 0; i < base.products.size(); ++i) {
      EXPECT_EQ(base.products[i].category, other.products[i].category);
      EXPECT_EQ(base.products[i].key, other.products[i].key);
      EXPECT_EQ(base.products[i].spec, other.products[i].spec);
      EXPECT_EQ(base.products[i].source_offers,
                other.products[i].source_offers);
    }
    // Multi-threaded runs publish the scheduler gauges into the run's
    // registry snapshot; single-threaded runs (no pool) still carry
    // trace.dropped_spans.
    bool saw_pool = false, saw_region = false, saw_drops = false;
    for (const auto& gauge : other.stats.registry.gauges) {
      if (gauge.name == "pool.worker.busy_ns") saw_pool = true;
      if (gauge.name.rfind("region.", 0) == 0) saw_region = true;
      if (gauge.name == "trace.dropped_spans") saw_drops = true;
    }
    EXPECT_TRUE(saw_drops);
    const size_t effective =
        threads == 0 ? ThreadPool::HardwareThreads() : threads;
    if (effective > 1) {
      EXPECT_TRUE(saw_pool);
      EXPECT_TRUE(saw_region);
    }
  }
  if (!was_enabled) SchedulerStats::Disable();
}

}  // namespace
}  // namespace prodsyn
