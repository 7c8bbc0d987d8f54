#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "src/matching/bag_index.h"
#include "src/matching/classifier_matcher.h"
#include "src/matching/training_set.h"
#include "src/ml/dataset.h"
#include "src/ml/dense_matrix.h"
#include "src/ml/logistic_regression.h"
#include "src/ml/metrics.h"
#include "src/ml/naive_bayes.h"
#include "src/ml/scaler.h"
#include "src/util/random.h"

namespace prodsyn {
namespace {

TEST(DatasetTest, TracksDimensionAndPositives) {
  Dataset data;
  ASSERT_TRUE(data.Add({{1.0, 2.0}, 1}).ok());
  ASSERT_TRUE(data.Add({{3.0, 4.0}, 0}).ok());
  EXPECT_EQ(data.dimension(), 2u);
  EXPECT_EQ(data.size(), 2u);
  EXPECT_EQ(data.positive_count(), 1u);
  EXPECT_TRUE(data.Add({{1.0}, 0}).IsInvalidArgument());  // wrong dim
  EXPECT_TRUE(data.Add({{1.0, 1.0}, 2}).IsInvalidArgument());  // bad label
}

TEST(DatasetTest, RejectsEmptyFirstExample) {
  // An empty first example would silently fix the dimension at 0 and make
  // every later (non-empty) Add fail with a confusing dimension mismatch.
  Dataset data;
  EXPECT_TRUE(data.Add({{}, 0}).IsInvalidArgument());
  EXPECT_EQ(data.dimension(), 0u);
  ASSERT_TRUE(data.Add({{1.0, 2.0}, 1}).ok());  // dataset still usable
  EXPECT_EQ(data.dimension(), 2u);
}

TEST(DatasetTest, ReserveAndMoveThroughAdd) {
  Dataset data;
  data.Reserve(3);
  Example ex;
  ex.features = {1.0, 2.0, 3.0};
  ex.label = 1;
  const double* storage = ex.features.data();
  ASSERT_TRUE(data.Add(std::move(ex)).ok());
  // The feature buffer was moved through, not copied: the stored example
  // owns the exact allocation the caller built.
  EXPECT_EQ(data.examples()[0].features.data(), storage);
  EXPECT_EQ(data.size(), 1u);
  EXPECT_EQ(data.positive_count(), 1u);
}

TEST(ScalerTest, StandardizesToZeroMeanUnitVariance) {
  Dataset data;
  ASSERT_TRUE(data.Add({{1.0, 10.0}, 0}).ok());
  ASSERT_TRUE(data.Add({{3.0, 10.0}, 1}).ok());
  StandardScaler scaler;
  ASSERT_TRUE(scaler.Fit(data).ok());
  EXPECT_DOUBLE_EQ(scaler.means()[0], 2.0);
  // Constant feature passes through unchanged (std clamped to 1).
  std::vector<double> x = {3.0, 10.0};
  ASSERT_TRUE(scaler.Transform(&x).ok());
  EXPECT_DOUBLE_EQ(x[0], 1.0);
  EXPECT_DOUBLE_EQ(x[1], 0.0);
}

TEST(ScalerTest, ErrorsOnMisuse) {
  StandardScaler scaler;
  std::vector<double> x = {1.0};
  EXPECT_TRUE(scaler.Transform(&x).IsFailedPrecondition());
  EXPECT_TRUE(scaler.Fit(Dataset()).IsInvalidArgument());
}

Dataset LinearlySeparable(size_t n, Rng* rng) {
  Dataset data;
  for (size_t i = 0; i < n; ++i) {
    const double x0 = rng->NextDouble() * 2.0 - 1.0;
    const double x1 = rng->NextDouble() * 2.0 - 1.0;
    const int label = (x0 + x1 > 0.0) ? 1 : 0;
    EXPECT_TRUE(data.Add({{x0, x1}, label}).ok());
  }
  return data;
}

TEST(LogisticRegressionTest, LearnsSeparableProblem) {
  Rng rng(5);
  Dataset data = LinearlySeparable(400, &rng);
  LogisticRegression model;
  ASSERT_TRUE(model.Fit(data).ok());
  ASSERT_TRUE(model.fitted());
  size_t correct = 0;
  for (const auto& ex : data.examples()) {
    if (*model.Predict(ex.features) == (ex.label == 1)) ++correct;
  }
  EXPECT_GT(static_cast<double>(correct) / data.size(), 0.95);
  // Both weights point in the positive direction for x0 + x1 > 0.
  EXPECT_GT(model.weights()[0], 0.0);
  EXPECT_GT(model.weights()[1], 0.0);
}

TEST(LogisticRegressionTest, ProbabilitiesOrderedByMargin) {
  Rng rng(6);
  Dataset data = LinearlySeparable(400, &rng);
  LogisticRegression model;
  ASSERT_TRUE(model.Fit(data).ok());
  const double deep_positive = *model.PredictProbability({1.0, 1.0});
  const double boundary = *model.PredictProbability({0.0, 0.0});
  const double deep_negative = *model.PredictProbability({-1.0, -1.0});
  EXPECT_GT(deep_positive, boundary);
  EXPECT_GT(boundary, deep_negative);
  EXPECT_GT(deep_positive, 0.9);
  EXPECT_LT(deep_negative, 0.1);
}

TEST(LogisticRegressionTest, RejectsDegenerateTrainingSets) {
  LogisticRegression model;
  EXPECT_TRUE(model.Fit(Dataset()).IsInvalidArgument());
  Dataset all_positive;
  ASSERT_TRUE(all_positive.Add({{1.0}, 1}).ok());
  EXPECT_TRUE(model.Fit(all_positive).IsFailedPrecondition());
  std::vector<double> x = {1.0};
  EXPECT_TRUE(model.PredictProbability(x).status().IsFailedPrecondition());
}

TEST(LogisticRegressionTest, DimensionMismatchAtInference) {
  Rng rng(7);
  LogisticRegression model;
  ASSERT_TRUE(model.Fit(LinearlySeparable(100, &rng)).ok());
  EXPECT_TRUE(
      model.PredictProbability({1.0}).status().IsInvalidArgument());
}

TEST(LogisticRegressionTest, ClassBalancingHelpsImbalancedData) {
  // 10:1 imbalance; balanced training should still put the boundary near
  // the true one rather than predicting the majority class everywhere.
  Rng rng(8);
  Dataset data;
  for (int i = 0; i < 550; ++i) {
    const double x = rng.NextDouble();  // [0,1)
    int label = x > 0.9 ? 1 : 0;
    ASSERT_TRUE(data.Add({{x}, label}).ok());
  }
  if (data.positive_count() == 0) GTEST_SKIP();
  LogisticRegression model;
  ASSERT_TRUE(model.Fit(data).ok());
  EXPECT_GT(*model.PredictProbability({0.99}), 0.5);
  EXPECT_LT(*model.PredictProbability({0.1}), 0.5);
}

// Gradient of the objective LogisticRegression::Fit minimizes —
// class-balanced mean log-loss plus (λ/2)·‖w‖² on the weights only — at
// (w, b), intercept component last. Deliberately naive: one row at a
// time, no blocks.
std::vector<double> ObjectiveGradient(const DenseMatrix& data,
                                      const std::vector<double>& w,
                                      double b) {
  const size_t n = data.rows();
  const size_t dim = data.cols();
  const double positives = static_cast<double>(data.positive_count());
  const double c_pos = static_cast<double>(n) / (2.0 * positives);
  const double c_neg =
      static_cast<double>(n) / (2.0 * (static_cast<double>(n) - positives));
  std::vector<double> g(dim + 1, 0.0);
  for (size_t i = 0; i < n; ++i) {
    const double* x = data.Row(i);
    double z = b;
    for (size_t j = 0; j < dim; ++j) z += w[j] * x[j];
    const int y = data.label(i);
    const double r = (y == 1 ? c_pos : c_neg) *
                     (Sigmoid(z) - static_cast<double>(y)) /
                     static_cast<double>(n);
    for (size_t j = 0; j < dim; ++j) g[j] += r * x[j];
    g[dim] += r;
  }
  for (size_t j = 0; j < dim; ++j) g[j] += LogisticRegression::kL2 * w[j];
  return g;
}

double MaxAbs(const std::vector<double>& v) {
  double m = 0.0;
  for (double x : v) m = std::max(m, std::fabs(x));
  return m;
}

// The slow reference the Newton trainer replaces: plain full-batch
// gradient descent (unit step) on the same objective, run until the
// gradient is ~0.
void GradientDescentReference(const DenseMatrix& data,
                              std::vector<double>* w, double* b) {
  w->assign(data.cols(), 0.0);
  *b = 0.0;
  for (int iter = 0; iter < 200000; ++iter) {
    const std::vector<double> g = ObjectiveGradient(data, *w, *b);
    if (MaxAbs(g) < 1e-12) return;
    for (size_t j = 0; j < w->size(); ++j) (*w)[j] -= g[j];
    *b -= g.back();
  }
  ADD_FAILURE() << "reference gradient descent did not converge";
}

// A noisy (non-separable), well-conditioned three-feature problem.
DenseMatrix NoisyProblem(size_t n, uint64_t seed) {
  Rng rng(seed);
  Dataset data;
  for (size_t i = 0; i < n; ++i) {
    const double a = rng.NextDouble() * 2.0 - 1.0;
    const double b = rng.NextDouble() * 2.0 - 1.0;
    const double c = rng.NextDouble() * 2.0 - 1.0;
    const double noise = rng.NextDouble() - 0.5;
    const int label = a + 0.5 * b - 0.25 * c + noise > 0.2 ? 1 : 0;
    EXPECT_TRUE(data.Add({{a, b, c}, label}).ok());
  }
  return *DenseMatrix::FromDataset(data);
}

TEST(LogisticRegressionTest, NewtonAgreesWithGradientDescentReference) {
  const DenseMatrix data = NoisyProblem(400, 11);
  LogisticRegression newton;
  ASSERT_TRUE(newton.Fit(data).ok());
  EXPECT_LE(newton.iterations_used(), 20u);
  std::vector<double> w;
  double b = 0.0;
  GradientDescentReference(data, &w, &b);
  ASSERT_EQ(newton.weights().size(), w.size());
  for (size_t j = 0; j < w.size(); ++j) {
    EXPECT_NEAR(newton.weights()[j], w[j], 1e-6) << "weight " << j;
  }
  EXPECT_NEAR(newton.intercept(), b, 1e-6);
}

TEST(LogisticRegressionTest, NonFiniteFeaturesFailWithoutAModel) {
  Rng rng(12);
  Dataset data = LinearlySeparable(50, &rng);
  ASSERT_TRUE(
      data.Add({{std::numeric_limits<double>::quiet_NaN(), 0.0}, 1}).ok());
  LogisticRegression model;
  EXPECT_TRUE(model.Fit(data).IsInternal());
  EXPECT_FALSE(model.fitted());
}

// On the seed-2011 Table 2 world's standardized training set, Newton
// reaches the gradient tolerance well inside the iteration cap.
TEST(LogisticRegressionTest, ConvergesOnSeedWorldTrainingSet) {
  const World world = *World::Generate(bench::FullWorldConfig());
  MatchingContext ctx;
  ctx.catalog = &world.catalog;
  ctx.offers = &world.historical_offers;
  ctx.matches = &world.historical_matches;
  const ClassifierMatcherOptions defaults;
  const MatchedBagIndex index = *MatchedBagIndex::Build(ctx);
  FeatureComputer computer(&index, defaults.features);
  const CorrespondenceTrainingSet training =
      *BuildTrainingSet(index, &computer, defaults.training);
  DenseMatrix matrix = *DenseMatrix::FromDataset(training.dataset);
  StandardScaler scaler;
  ASSERT_TRUE(scaler.Fit(matrix).ok());
  ASSERT_TRUE(scaler.TransformInPlace(&matrix).ok());

  LogisticRegression model;
  ASSERT_TRUE(model.Fit(matrix).ok());
  EXPECT_LE(model.iterations_used(), 20u);
  EXPECT_LE(MaxAbs(ObjectiveGradient(matrix, model.weights(),
                                     model.intercept())),
            LogisticRegression::kGradientTolerance);
}

TEST(SigmoidTest, StableAtExtremes) {
  EXPECT_NEAR(Sigmoid(0.0), 0.5, 1e-12);
  EXPECT_NEAR(Sigmoid(1000.0), 1.0, 1e-12);
  EXPECT_NEAR(Sigmoid(-1000.0), 0.0, 1e-12);
  EXPECT_FALSE(std::isnan(Sigmoid(-1e308)));
}

TEST(NaiveBayesTest, ClassifiesObviousDocuments) {
  MultinomialNaiveBayes nb;
  nb.AddDocument("drives", {"seagate", "barracuda", "sata", "rpm"});
  nb.AddDocument("drives", {"hitachi", "deskstar", "rpm", "cache"});
  nb.AddDocument("cameras", {"canon", "eos", "megapixel", "zoom"});
  nb.AddDocument("cameras", {"nikon", "coolpix", "zoom", "lens"});
  EXPECT_EQ(*nb.Classify({"sata", "rpm"}), "drives");
  EXPECT_EQ(*nb.Classify({"zoom", "megapixel"}), "cameras");
  EXPECT_EQ(nb.class_count(), 2u);
}

TEST(NaiveBayesTest, PosteriorsSumToOne) {
  MultinomialNaiveBayes nb;
  nb.AddDocument("a", {"x", "y"});
  nb.AddDocument("b", {"z"});
  const auto post = *nb.Posteriors({"x"});
  ASSERT_EQ(post.size(), 2u);
  EXPECT_NEAR(post[0] + post[1], 1.0, 1e-12);
  EXPECT_GT(post[0], post[1]);  // class "a" owns token "x"
}

TEST(NaiveBayesTest, SmoothingHandlesUnseenTokens) {
  MultinomialNaiveBayes nb;
  nb.AddDocument("a", {"x"});
  nb.AddDocument("b", {"y"});
  // Entirely unseen token: no crash, both classes get a finite score.
  const auto post = *nb.Posteriors({"never_seen"});
  EXPECT_NEAR(post[0] + post[1], 1.0, 1e-12);
}

TEST(NaiveBayesTest, ErrorsWithoutTrainingData) {
  MultinomialNaiveBayes nb;
  EXPECT_TRUE(nb.Classify({"x"}).status().IsFailedPrecondition());
  EXPECT_TRUE(nb.Posteriors({"x"}).status().IsFailedPrecondition());
  EXPECT_TRUE(nb.LogScore("a", {"x"}).status().IsFailedPrecondition());
}

TEST(NaiveBayesTest, LogScoreUnknownClassIsNotFound) {
  MultinomialNaiveBayes nb;
  nb.AddDocument("a", {"x"});
  EXPECT_TRUE(nb.LogScore("zzz", {"x"}).status().IsNotFound());
}

// ---------- Compiled naive Bayes against the string-scan reference ----------

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

// The compiled form of `nb`'s exported model must give every class the
// bit-equal score of the reference and pick the reference's class.
void ExpectCompiledMatchesReference(const MultinomialNaiveBayes& nb,
                                    const std::vector<std::string>& tokens) {
  auto compiled = CompiledNaiveBayes::Compile(nb.ExportModel());
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  auto scores = compiled->LogScores(tokens);
  ASSERT_TRUE(scores.ok()) << scores.status();
  ASSERT_EQ(scores->size(), nb.class_count());
  for (size_t c = 0; c < nb.class_count(); ++c) {
    auto reference = nb.LogScore(nb.classes()[c], tokens);
    ASSERT_TRUE(reference.ok());
    EXPECT_EQ(Bits((*scores)[c]), Bits(*reference))
        << "class " << nb.classes()[c] << ": " << (*scores)[c] << " vs "
        << *reference;
  }
  auto index = compiled->Classify(tokens);
  ASSERT_TRUE(index.ok()) << index.status();
  EXPECT_EQ(nb.classes()[*index], *nb.Classify(tokens));
}

MultinomialNaiveBayes SmallModel() {
  MultinomialNaiveBayes nb(0.001);
  nb.AddDocument("drives", {"seagate", "sata", "rpm", "sata"});
  nb.AddDocument("cameras", {"canon", "zoom", "lens"});
  nb.AddDocument("drives", {"hitachi", "rpm", "cache"});
  nb.AddDocument("monitors", {"lcd", "hdmi", "zoom"});
  return nb;
}

TEST(CompiledNaiveBayesTest, EmptyTitleScoresThePriors) {
  const MultinomialNaiveBayes nb = SmallModel();
  ExpectCompiledMatchesReference(nb, {});
  // "drives" has the most documents.
  EXPECT_EQ(*CompiledNaiveBayes::Compile(nb.ExportModel())->Classify({}), 0u);
}

TEST(CompiledNaiveBayesTest, AllUnknownTokens) {
  ExpectCompiledMatchesReference(SmallModel(), {"never", "seen", "words"});
}

TEST(CompiledNaiveBayesTest, KnownAndMixedTokens) {
  const MultinomialNaiveBayes nb = SmallModel();
  ExpectCompiledMatchesReference(nb, {"sata", "rpm"});
  ExpectCompiledMatchesReference(nb, {"zoom", "unknown", "lens"});
  ExpectCompiledMatchesReference(nb, {"hdmi"});
}

TEST(CompiledNaiveBayesTest, RepeatedTokens) {
  const MultinomialNaiveBayes nb = SmallModel();
  ExpectCompiledMatchesReference(nb, {"zoom", "zoom", "zoom", "sata"});
  ExpectCompiledMatchesReference(nb, {"rpm", "unknown", "rpm", "unknown"});
}

TEST(CompiledNaiveBayesTest, ExactTieGoesToEarlierSeenClass) {
  // Two mirror-image classes: same documents, same token totals, so a
  // title of only unseen tokens scores them exactly equal.
  MultinomialNaiveBayes nb(0.001);
  nb.AddDocument("b", {"x"});
  nb.AddDocument("a", {"y"});
  auto compiled = CompiledNaiveBayes::Compile(nb.ExportModel());
  ASSERT_TRUE(compiled.ok());
  for (const std::vector<std::string>& tokens :
       {std::vector<std::string>{}, std::vector<std::string>{"z", "z"}}) {
    ExpectCompiledMatchesReference(nb, tokens);
    const auto scores = *compiled->LogScores(tokens);
    EXPECT_EQ(Bits(scores[0]), Bits(scores[1]));
    EXPECT_EQ(*compiled->Classify(tokens), 0u);
    EXPECT_EQ(*nb.Classify(tokens), "b");
  }
}

TEST(CompiledNaiveBayesTest, RestoredReferenceAgreesWithTrained) {
  // A reference restored from the model scores like the trained one, so
  // either can serve as the compiled table's oracle.
  const MultinomialNaiveBayes trained = SmallModel();
  MultinomialNaiveBayes restored;
  ASSERT_TRUE(restored.RestoreModel(trained.ExportModel()).ok());
  const std::vector<std::string> tokens = {"zoom", "sata", "new"};
  for (const auto& label : trained.classes()) {
    EXPECT_EQ(Bits(*restored.LogScore(label, tokens)),
              Bits(*trained.LogScore(label, tokens)));
  }
  ExpectCompiledMatchesReference(restored, tokens);
}

TEST(CompiledNaiveBayesTest, MovedTableKeepsItsDictionary) {
  // The token dictionary views the owned vocabulary's strings (short
  // tokens live inside the string objects); moves must keep them valid.
  const MultinomialNaiveBayes nb = SmallModel();
  const std::vector<std::string> tokens = {"sata", "zoom", "lcd", "new"};
  auto compiled = CompiledNaiveBayes::Compile(nb.ExportModel());
  ASSERT_TRUE(compiled.ok());
  CompiledNaiveBayes moved(std::move(compiled).ValueOrDie());
  CompiledNaiveBayes assigned;
  assigned = std::move(moved);
  const auto scores = *assigned.LogScores(tokens);
  ASSERT_EQ(scores.size(), nb.class_count());
  for (size_t c = 0; c < nb.class_count(); ++c) {
    EXPECT_EQ(Bits(scores[c]), Bits(*nb.LogScore(nb.classes()[c], tokens)));
  }
}

TEST(CompiledNaiveBayesTest, RejectsCountedTokenOutsideVocabulary) {
  NaiveBayesModel model = SmallModel().ExportModel();
  model.vocabulary.erase(model.vocabulary.begin());
  ASSERT_TRUE(ValidateNaiveBayesModel(model).ok());
  EXPECT_TRUE(CompiledNaiveBayes::Compile(std::move(model))
                  .status()
                  .IsInvalidArgument());
}

TEST(CompiledNaiveBayesTest, UntrainedModelIsFailedPrecondition) {
  const NaiveBayesModel empty;
  EXPECT_TRUE(ValidateNaiveBayesModel(empty).ok());
  auto compiled = CompiledNaiveBayes::Compile(empty);
  ASSERT_TRUE(compiled.ok());
  EXPECT_EQ(compiled->class_count(), 0u);
  EXPECT_TRUE(compiled->Classify({"x"}).status().IsFailedPrecondition());
  EXPECT_TRUE(compiled->LogScores({"x"}).status().IsFailedPrecondition());
}

TEST(NaiveBayesModelTest, ValidationRejectsModelsThatCannotScore) {
  const NaiveBayesModel valid = SmallModel().ExportModel();
  ASSERT_TRUE(ValidateNaiveBayesModel(valid).ok());
  std::vector<std::pair<const char*, NaiveBayesModel>> bad;
  {
    NaiveBayesModel m = valid;  // every log-prior would be -inf
    for (auto& cls : m.classes) cls.documents = 0;
    m.total_documents = 0;
    bad.emplace_back("all classes without documents", m);
  }
  {
    NaiveBayesModel m = valid;
    m.classes[1].documents = 0;
    m.total_documents -= valid.classes[1].documents;
    bad.emplace_back("one class without documents", m);
  }
  {
    NaiveBayesModel m = valid;
    m.total_documents += 1;
    bad.emplace_back("documents sum below total", m);
  }
  {
    NaiveBayesModel m = valid;
    m.total_documents = 1;
    bad.emplace_back("documents sum above total", m);
  }
  {
    NaiveBayesModel m = valid;
    m.classes[2].label = m.classes[0].label;
    bad.emplace_back("duplicate label", m);
  }
  {
    NaiveBayesModel m = valid;
    std::swap(m.vocabulary[0], m.vocabulary[1]);
    bad.emplace_back("unsorted vocabulary", m);
  }
  {
    NaiveBayesModel m = valid;
    m.vocabulary.push_back(m.vocabulary.back());
    bad.emplace_back("duplicate vocabulary entry", m);
  }
  for (double alpha : {0.0, -1.0, std::numeric_limits<double>::quiet_NaN(),
                       std::numeric_limits<double>::infinity()}) {
    NaiveBayesModel m = valid;
    m.alpha = alpha;
    bad.emplace_back("bad alpha", m);
  }
  for (const auto& [name, model] : bad) {
    SCOPED_TRACE(name);
    EXPECT_TRUE(ValidateNaiveBayesModel(model).IsInvalidArgument());
    EXPECT_TRUE(
        CompiledNaiveBayes::Compile(model).status().IsInvalidArgument());
    MultinomialNaiveBayes reference = SmallModel();
    EXPECT_TRUE(reference.RestoreModel(model).IsInvalidArgument());
    // A rejected restore leaves the instance as it was.
    EXPECT_EQ(*reference.Classify({"sata"}), "drives");
  }
}

TEST(MetricsTest, ConfusionCounts) {
  const std::vector<double> scores = {0.9, 0.8, 0.4, 0.2};
  const std::vector<int> labels = {1, 0, 1, 0};
  const auto m = *ComputeBinaryMetrics(scores, labels, 0.5);
  EXPECT_EQ(m.true_positives, 1u);
  EXPECT_EQ(m.false_positives, 1u);
  EXPECT_EQ(m.false_negatives, 1u);
  EXPECT_EQ(m.true_negatives, 1u);
  EXPECT_DOUBLE_EQ(m.Precision(), 0.5);
  EXPECT_DOUBLE_EQ(m.Recall(), 0.5);
  EXPECT_DOUBLE_EQ(m.F1(), 0.5);
  EXPECT_DOUBLE_EQ(m.Accuracy(), 0.5);
}

TEST(MetricsTest, SizeMismatchRejected) {
  EXPECT_TRUE(ComputeBinaryMetrics({0.5}, {1, 0}, 0.5)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ComputeAuc({0.5}, {1, 0}).status().IsInvalidArgument());
}

TEST(MetricsTest, AucPerfectAndRandom) {
  EXPECT_DOUBLE_EQ(*ComputeAuc({0.9, 0.8, 0.2, 0.1}, {1, 1, 0, 0}), 1.0);
  EXPECT_DOUBLE_EQ(*ComputeAuc({0.1, 0.2, 0.8, 0.9}, {1, 1, 0, 0}), 0.0);
  // All-tied scores give 0.5 via average ranks.
  EXPECT_DOUBLE_EQ(*ComputeAuc({0.5, 0.5, 0.5, 0.5}, {1, 1, 0, 0}), 0.5);
}

TEST(MetricsTest, AucRequiresBothClasses) {
  EXPECT_TRUE(ComputeAuc({0.5, 0.6}, {1, 1}).status().IsFailedPrecondition());
}

}  // namespace
}  // namespace prodsyn
