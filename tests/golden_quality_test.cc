// Golden quality gate: regenerates the seed-2011 experiment worlds and
// compares the paper's headline numbers exactly against
// tests/golden/quality.json —
//   * Table 2 (input offers, products, attributes, attribute/product
//     precision to 4 decimals) on the full bench world;
//   * the §5.1 offline counters of that same learning run (candidates,
//     auto-labeled examples, positives, predicted valid);
//   * the Table 3 per-domain rows of that same synthesis run;
//   * Fig. 6 "Our approach" coverage at precision ≥ 0.90 / 0.85 / 0.80 /
//     0.70 on the schema-matching world (Fig. 6's ablations are not run).
//
// Any change to these values is a change to the reproduced results: a
// change that moves them re-pins the file and lists every old → new value
// in CHANGES.md. Run it alone with `ctest --preset golden` (after
// `cmake --preset release && cmake --build --preset release`) or
// `ctest -L golden` in any build tree.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "src/eval/correspondence_eval.h"
#include "src/eval/synthesis_eval.h"
#include "src/matching/classifier_matcher.h"
#include "src/pipeline/synthesizer.h"
#include "src/util/file.h"

namespace prodsyn {
namespace {

using Values = std::vector<std::pair<std::string, std::string>>;

std::string Count(size_t value) { return std::to_string(value); }

std::string Ratio(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4f", value);
  return buf;
}

// Table 2, the §5.1 counters and Table 3 come from ONE learning run and
// one synthesis run on the Table 2 world (bench_table2_end_to_end and
// bench_table3_categories run the same pipeline on the same world).
void AppendEndToEnd(Values* values) {
  World world = *World::Generate(bench::FullWorldConfig());
  ProductSynthesizer synthesizer(&world.catalog);
  ASSERT_TRUE(synthesizer
                  .LearnOffline(world.historical_offers,
                                world.historical_matches)
                  .ok());
  const SynthesisResult result =
      *synthesizer.Synthesize(world.incoming_offers, world.pages);
  EvaluationOracle oracle(&world);

  const SynthesisQuality quality = EvaluateSynthesis(result, oracle);
  values->emplace_back("table2.input_offers", Count(quality.input_offers));
  values->emplace_back("table2.synthesized_products",
                       Count(quality.synthesized_products));
  values->emplace_back("table2.synthesized_attributes",
                       Count(quality.synthesized_attributes));
  values->emplace_back("table2.attribute_precision",
                       Ratio(quality.attribute_precision));
  values->emplace_back("table2.product_precision",
                       Ratio(quality.product_precision));

  const auto& learning = synthesizer.learning_stats();
  values->emplace_back("section5_1.candidates", Count(learning.candidates));
  values->emplace_back("section5_1.auto_labeled",
                       Count(learning.training_examples));
  values->emplace_back("section5_1.positives",
                       Count(learning.training_positives));
  values->emplace_back("section5_1.predicted_valid",
                       Count(learning.predicted_valid));

  for (const DomainQualityRow& row : EvaluateByDomain(result, oracle)) {
    const std::string prefix = "table3." + row.domain + ".";
    values->emplace_back(prefix + "products", Count(row.products));
    values->emplace_back(prefix + "avg_attributes",
                         Ratio(row.avg_attributes_per_product));
    values->emplace_back(prefix + "attribute_precision",
                         Ratio(row.attribute_precision));
    values->emplace_back(prefix + "product_precision",
                         Ratio(row.product_precision));
  }
}

// Fig. 6's "Our approach" row: the default classifier on the
// schema-matching world (bench_fig6_feature_combination).
void AppendFig6(Values* values) {
  World world = *World::Generate(bench::MatchingWorldConfig());
  EvaluationOracle oracle(&world);
  ClassifierMatcher ours;
  const auto corrs =
      *ours.Generate(bench::HistoricalContext(world, /*computing_only=*/false));
  for (const auto& [label, bar] :
       std::vector<std::pair<std::string, double>>{
           {"0.90", 0.90}, {"0.85", 0.85}, {"0.80", 0.80}, {"0.70", 0.70}}) {
    values->emplace_back("fig6.our_approach.coverage_at_p" + label,
                         Count(CoverageAtPrecision(corrs, oracle, bar)));
  }
}

std::string Render(const Values& values) {
  std::string out = "{\n";
  for (size_t i = 0; i < values.size(); ++i) {
    out += "  \"" + values[i].first + "\": " + values[i].second +
           (i + 1 < values.size() ? ",\n" : "\n");
  }
  return out + "}\n";
}

// The golden file is exactly what Render() writes, so one string
// comparison checks every value; gtest prints a line diff on a mismatch,
// and the regenerated side is the file to re-pin.
TEST(GoldenQualityTest, Seed2011MatchesPinnedValues) {
  Values measured;
  AppendEndToEnd(&measured);
  AppendFig6(&measured);

  const auto golden = ReadFileToString(PRODSYN_GOLDEN_QUALITY_JSON);
  ASSERT_TRUE(golden.ok()) << golden.status().ToString();
  EXPECT_EQ(*golden, Render(measured));
}

}  // namespace
}  // namespace prodsyn
