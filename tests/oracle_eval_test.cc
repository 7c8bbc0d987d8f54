#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "src/datagen/world.h"
#include "src/eval/correspondence_eval.h"
#include "src/eval/oracle.h"
#include "src/eval/report.h"
#include "src/eval/sampling.h"
#include "src/eval/synthesis_eval.h"
#include "src/util/string_util.h"

namespace prodsyn {
namespace {

// ---------- Value equivalence ----------

struct EquivCase {
  const char* a;
  const char* b;
  bool equivalent;
};

// Prints the case by content, so parameterized test names do not carry the
// (ASLR-randomized) addresses of the string literals.
void PrintTo(const EquivCase& c, std::ostream* os) {
  *os << ::testing::PrintToString(std::string(c.a))
      << (c.equivalent ? " == " : " != ")
      << ::testing::PrintToString(std::string(c.b));
}

class ValuesEquivalentTest : public ::testing::TestWithParam<EquivCase> {};

TEST_P(ValuesEquivalentTest, JudgesAsALabelerWould) {
  EXPECT_EQ(ValuesEquivalent(GetParam().a, GetParam().b),
            GetParam().equivalent);
  // Symmetry.
  EXPECT_EQ(ValuesEquivalent(GetParam().b, GetParam().a),
            GetParam().equivalent);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ValuesEquivalentTest,
    ::testing::Values(EquivCase{"500 GB", "500GB", true},
                      EquivCase{"500 GB", "500", true},
                      EquivCase{"500 GB", "400 GB", false},
                      EquivCase{"Windows Vista", "windows VISTA", true},
                      EquivCase{"SATA 300", "SATA 150", false},
                      EquivCase{"Seagate", "Hitachi", false},
                      EquivCase{"", "", true},
                      EquivCase{"x", "", false},
                      EquivCase{"7200 rpm", "7200RPM", true}));

TEST(ValuesEquivalentForAttributeTest, StripsKnownUnitSpellings) {
  // "MHz" vs "megahertz" are declared unit variants of Core Clock.
  EXPECT_TRUE(ValuesEquivalentForAttribute("Core Clock", "700megahertz",
                                           "700 MHz"));
  EXPECT_FALSE(ValuesEquivalentForAttribute("Core Clock", "600 MHz",
                                            "700 MHz"));
  EXPECT_TRUE(ValuesEquivalentForAttribute("Load Capacity", "11lbs",
                                           "11 lb"));
  // Attributes without unit models fall back to plain equivalence.
  EXPECT_TRUE(ValuesEquivalentForAttribute("Brand", "Seagate", "SEAGATE"));
  EXPECT_FALSE(ValuesEquivalentForAttribute("Brand", "Seagate", "Hitachi"));
}

// ---------- Oracle + curves on a real world ----------

class OracleWorld : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    WorldConfig config;
    config.seed = 21;
    config.categories_per_archetype = 1;
    config.merchants = 30;
    config.products_per_category = 12;
    world_ = new World(*World::Generate(config));
    oracle_ = new EvaluationOracle(world_);
  }
  static void TearDownTestSuite() {
    delete oracle_;
    delete world_;
    world_ = nullptr;
    oracle_ = nullptr;
  }
  static World* world_;
  static EvaluationOracle* oracle_;
};

World* OracleWorld::world_ = nullptr;
EvaluationOracle* OracleWorld::oracle_ = nullptr;

TEST_F(OracleWorld, CorrespondenceJudgment) {
  // Take a real (merchant, category, attr) naming from the truth table.
  ASSERT_FALSE(world_->naming_truth.empty());
  bool checked = false;
  for (const auto& profile : world_->merchant_profiles) {
    for (CategoryId category : profile.categories) {
      const CategoryInstance* inst = world_->InstanceOf(category);
      ASSERT_NE(inst, nullptr);
      const auto& attr = inst->archetype->attributes.front();
      const std::string merchant_name = profile.AttrName(category, attr.name);
      EXPECT_TRUE(oracle_->IsCorrespondenceCorrect(
          {attr.name, merchant_name, profile.id, category}));
      EXPECT_FALSE(oracle_->IsCorrespondenceCorrect(
          {attr.name, "Shipping", profile.id, category}));
      checked = true;
      break;
    }
    if (checked) break;
  }
  EXPECT_TRUE(checked);
}

TEST_F(OracleWorld, JudgeProductAgainstTruth) {
  ASSERT_FALSE(world_->novel_products.empty());
  const TrueProduct& truth = world_->novel_products[0];
  SynthesizedProduct product;
  product.category = truth.category;
  product.key = truth.key;
  product.spec = truth.spec;  // perfect synthesis
  const ProductJudgment perfect = oracle_->JudgeProduct(product);
  EXPECT_TRUE(perfect.found_product);
  EXPECT_TRUE(perfect.AllCorrect());
  EXPECT_EQ(perfect.correct_attributes, truth.spec.size());

  // Corrupt one value.
  product.spec[0].value = "definitely wrong value 99999";
  const ProductJudgment partial = oracle_->JudgeProduct(product);
  EXPECT_TRUE(partial.found_product);
  EXPECT_FALSE(partial.AllCorrect());
  EXPECT_EQ(partial.correct_attributes, truth.spec.size() - 1);

  // Unknown key: nothing is correct.
  product.key = "NOSUCHKEY123";
  const ProductJudgment lost = oracle_->JudgeProduct(product);
  EXPECT_FALSE(lost.found_product);
  EXPECT_EQ(lost.correct_attributes, 0u);
  EXPECT_FALSE(lost.AllCorrect());
}

TEST_F(OracleWorld, JudgeProductResolvesByUpcToo) {
  const TrueProduct& truth = world_->novel_products[0];
  auto upc = FindValue(truth.spec, "UPC");
  ASSERT_TRUE(upc.has_value());
  SynthesizedProduct product;
  product.category = truth.category;
  product.key = NormalizeKey(*upc);
  product.spec = {truth.spec[0]};
  EXPECT_TRUE(oracle_->JudgeProduct(product).found_product);
}

TEST_F(OracleWorld, PrecisionCoverageCurveIsWellFormed) {
  // Score candidates with the oracle itself (perfect matcher) plus noise
  // ranks; the curve must be monotone in coverage and bounded.
  std::vector<AttributeCorrespondence> corrs;
  int i = 0;
  for (const auto& [key, names] : world_->naming_truth) {
    (void)key;
    for (const auto& [offer_name, catalog_name] : names) {
      // alternate correct and wrong at varying scores
      corrs.push_back({{catalog_name, offer_name, 0, 0}, 1.0 - 0.001 * i});
      ++i;
    }
    if (i > 500) break;
  }
  CurveOptions options;
  options.exclude_name_identities = false;
  auto curve = PrecisionCoverageCurve(corrs, *oracle_, options);
  ASSERT_FALSE(curve.empty());
  size_t prev_coverage = 0;
  for (const auto& point : curve) {
    EXPECT_GT(point.coverage, prev_coverage);
    prev_coverage = point.coverage;
    EXPECT_GE(point.precision, 0.0);
    EXPECT_LE(point.precision, 1.0);
  }
  EXPECT_EQ(curve.back().coverage, corrs.size());
}

TEST_F(OracleWorld, CurveExcludesNameIdentities) {
  std::vector<AttributeCorrespondence> corrs = {
      {{"Brand", "Brand", 0, 0}, 0.99},  // identity: excluded
      {{"Brand", "Make", 0, 0}, 0.5},
  };
  auto curve = PrecisionCoverageCurve(corrs, *oracle_);
  ASSERT_EQ(curve.size(), 1u);
  EXPECT_EQ(curve[0].coverage, 1u);
}

TEST(PrecisionAtCoverageTest, CountsTopKCorrectness) {
  WorldConfig config;
  config.seed = 22;
  config.categories_per_archetype = 1;
  config.merchants = 10;
  config.products_per_category = 5;
  World world = *World::Generate(config);
  EvaluationOracle oracle(&world);
  // Build 2 correct + 2 wrong correspondences with descending scores.
  const auto& profile = world.merchant_profiles[0];
  const CategoryId category = *profile.categories.begin();
  const CategoryInstance* inst = world.InstanceOf(category);
  const auto& a0 = inst->archetype->attributes[0];
  const auto& a1 = inst->archetype->attributes[1];
  std::vector<AttributeCorrespondence> corrs = {
      {{a0.name, profile.AttrName(category, a0.name), profile.id, category},
       0.9},
      {{a1.name, profile.AttrName(category, a1.name), profile.id, category},
       0.8},
      {{a0.name, "Shipping", profile.id, category}, 0.7},
      {{a1.name, "Warranty", profile.id, category}, 0.6},
  };
  CurveOptions options;
  options.exclude_name_identities = false;
  EXPECT_DOUBLE_EQ(PrecisionAtCoverage(corrs, oracle, 2, options), 1.0);
  EXPECT_DOUBLE_EQ(PrecisionAtCoverage(corrs, oracle, 4, options), 0.5);
  EXPECT_DOUBLE_EQ(PrecisionAtCoverage(corrs, oracle, 9, options), 0.0);
  EXPECT_EQ(CoverageAtPrecision(corrs, oracle, 0.99, options), 2u);
  EXPECT_EQ(CoverageAtPrecision(corrs, oracle, 0.5, options), 4u);
}

TEST_F(OracleWorld, EvaluateByCategoryOrdersWorstFirst) {
  // Build a tiny SynthesisResult by hand: one perfect product and one
  // broken product in different categories.
  ASSERT_GE(world_->novel_products.size(), 2u);
  const TrueProduct* first = nullptr;
  const TrueProduct* second = nullptr;
  for (const auto& novel : world_->novel_products) {
    if (first == nullptr) {
      first = &novel;
    } else if (novel.category != first->category) {
      second = &novel;
      break;
    }
  }
  ASSERT_NE(second, nullptr);

  SynthesisResult result;
  SynthesizedProduct good;
  good.category = first->category;
  good.key = first->key;
  good.spec = first->spec;
  good.source_offers = {0};
  result.products.push_back(good);
  SynthesizedProduct bad;
  bad.category = second->category;
  bad.key = "NOSUCHKEY42";
  bad.spec = {second->spec[0]};
  bad.source_offers = {1};
  result.products.push_back(bad);
  result.stats.input_offers = 2;

  const auto rows = EvaluateByCategory(result, *oracle_);
  ASSERT_EQ(rows.size(), 2u);
  // Worst first: the broken category leads.
  EXPECT_EQ(rows[0].category, second->category);
  EXPECT_DOUBLE_EQ(rows[0].product_precision, 0.0);
  EXPECT_DOUBLE_EQ(rows[1].product_precision, 1.0);
  EXPECT_FALSE(rows[0].path.empty());
  EXPECT_EQ(rows[1].avg_attributes_per_product,
            static_cast<double>(first->spec.size()));

  // Consistency with the overall metric.
  const SynthesisQuality q = EvaluateSynthesis(result, *oracle_);
  EXPECT_DOUBLE_EQ(q.product_precision, 0.5);
  EXPECT_EQ(q.synthesized_products, 2u);
}

// ---------- Sampling ----------

TEST(SamplingTest, SampleSizeMatchesTextbookValues) {
  // Large population at 5% margin: the familiar n = 384.
  EXPECT_EQ(SampleSizeFor95Confidence(1000000), 384u);
  EXPECT_EQ(SampleSizeFor95Confidence(0), 0u);
  // Small populations are fully sampled-ish via correction.
  EXPECT_LE(SampleSizeFor95Confidence(100), 100u);
  EXPECT_GT(SampleSizeFor95Confidence(100), 50u);
}

TEST(SamplingTest, SampleIndicesAreDistinctSortedInRange) {
  Rng rng(31);
  const auto sample = SampleIndices(1000, 100, &rng);
  ASSERT_EQ(sample.size(), 100u);
  for (size_t i = 0; i < sample.size(); ++i) {
    EXPECT_LT(sample[i], 1000u);
    if (i > 0) {
      EXPECT_GT(sample[i], sample[i - 1]);
    }
  }
  // Clamps when n > population.
  EXPECT_EQ(SampleIndices(5, 10, &rng).size(), 5u);
}

TEST(SamplingTest, EstimateApproximatesTrueProportion) {
  Rng rng(32);
  std::vector<bool> outcomes(10000);
  for (size_t i = 0; i < outcomes.size(); ++i) outcomes[i] = i % 10 < 9;
  const auto est = EstimateProportion(outcomes, 384, &rng);
  EXPECT_NEAR(est.value, 0.9, 0.05);
  EXPECT_LT(est.low, est.value);
  EXPECT_GT(est.high, est.value);
  EXPECT_EQ(est.sample_size, 384u);
}

// ---------- Report ----------

TEST(ReportTest, TableAlignsColumns) {
  TextTable table({"Name", "Value"});
  table.AddRow({"Attribute Precision", "0.92"});
  table.AddRow({"Products", "287,135"});
  const std::string out = table.ToString();
  EXPECT_NE(out.find("Name"), std::string::npos);
  EXPECT_NE(out.find("287,135"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
  EXPECT_EQ(table.row_count(), 2u);
}

TEST(ReportTest, RowsArePaddedOrTruncated) {
  TextTable table({"A", "B"});
  table.AddRow({"only one"});
  table.AddRow({"one", "two", "three"});
  const std::string out = table.ToString();
  EXPECT_EQ(out.find("three"), std::string::npos);
}

TEST(ReportTest, Formatting) {
  EXPECT_EQ(FormatDouble(0.9234), "0.92");
  EXPECT_EQ(FormatDouble(0.5, 3), "0.500");
  EXPECT_EQ(FormatCount(0), "0");
  EXPECT_EQ(FormatCount(999), "999");
  EXPECT_EQ(FormatCount(1000), "1,000");
  EXPECT_EQ(FormatCount(856781), "856,781");
  EXPECT_EQ(FormatCount(1126926), "1,126,926");
}

}  // namespace
}  // namespace prodsyn
