// Determinism and layout tests for the parallel LR trainer: fixed-block
// gradient sharding must produce bit-identical weights for ANY thread
// count and the ParallelFor chunk plan it implies (the offline half of
// the repo's determinism contract), and the flat DenseMatrix path must
// match the AoS Dataset path exactly.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "src/ml/dataset.h"
#include "src/ml/dense_matrix.h"
#include "src/ml/logistic_regression.h"
#include "src/ml/scaler.h"
#include "src/util/random.h"
#include "src/util/sched_stats.h"
#include "src/util/thread_pool.h"

namespace prodsyn {
namespace {

// A noisy six-feature problem shaped like the correspondence training
// set: a few informative dimensions, a redundant one, and noise.
Dataset MakeTrainingSet(size_t n, uint64_t seed) {
  Rng rng(seed);
  Dataset data;
  data.Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const double a = rng.NextDouble() * 2.0 - 1.0;
    const double b = rng.NextDouble() * 2.0 - 1.0;
    const double c = rng.NextDouble() * 2.0 - 1.0;
    const double noise = rng.NextDouble() * 0.4 - 0.2;
    const int label = (a + 0.5 * b - 0.25 * c + noise > 0.0) ? 1 : 0;
    Example ex;
    ex.features = {a, b, c, a * b, rng.NextDouble(), 1.0 - a};
    ex.label = label;
    EXPECT_TRUE(data.Add(std::move(ex)).ok());
  }
  return data;
}

// Exact bit comparison: EXPECT_EQ on doubles would treat -0.0 == 0.0.
bool BitIdentical(double a, double b) {
  uint64_t ua = 0, ub = 0;
  std::memcpy(&ua, &a, sizeof(ua));
  std::memcpy(&ub, &b, sizeof(ub));
  return ua == ub;
}

class LrParallelTest : public ::testing::Test {
 protected:
  // 6000 rows are 24 fixed 256-row blocks: enough that every thread
  // count below chunks the blocks differently.
  void SetUp() override {
    data_ = MakeTrainingSet(6000, 42);
    matrix_ = *DenseMatrix::FromDataset(data_);
    ASSERT_TRUE(scaler_.Fit(matrix_).ok());
    ASSERT_TRUE(scaler_.TransformInPlace(&matrix_).ok());
  }

  Dataset data_;
  DenseMatrix matrix_;
  StandardScaler scaler_;
};

// The tentpole contract: any thread count — and so any chunk plan the
// pool derives from it — trains to the SAME bits, because the numeric
// block boundaries, the in-order tree reduce and the Newton solve on the
// calling thread depend only on the row count, never on the schedule.
TEST_F(LrParallelTest, WeightsBitIdenticalAcrossThreadsAndChunkPlans) {
  LogisticRegressionOptions reference_options;
  reference_options.threads = 1;
  LogisticRegression reference;
  ASSERT_TRUE(reference.Fit(matrix_, reference_options).ok());
  ASSERT_TRUE(reference.fitted());
  ASSERT_GT(reference.iterations_used(), 1u);

  for (const size_t threads :
       {size_t{2}, size_t{3}, size_t{4}, size_t{8}, size_t{0}}) {
    LogisticRegressionOptions options;
    options.threads = threads;
    LogisticRegression model;
    ASSERT_TRUE(model.Fit(matrix_, options).ok());
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    EXPECT_EQ(model.iterations_used(), reference.iterations_used());
    ASSERT_EQ(model.weights().size(), reference.weights().size());
    for (size_t j = 0; j < model.weights().size(); ++j) {
      EXPECT_TRUE(BitIdentical(model.weights()[j], reference.weights()[j]))
          << "weight " << j << ": " << model.weights()[j] << " vs "
          << reference.weights()[j];
    }
    EXPECT_TRUE(BitIdentical(model.intercept(), reference.intercept()));
  }
}

// Scheduler accounting is observation only: with SchedulerStats enabled
// the trained weights stay bit-identical to the accounting-off reference
// for every thread count.
TEST_F(LrParallelTest, WeightsBitIdenticalWithSchedStatsEnabled) {
  const bool was_enabled = SchedulerStats::enabled();
  SchedulerStats::Disable();
  LogisticRegressionOptions reference_options;
  reference_options.threads = 1;
  LogisticRegression reference;
  ASSERT_TRUE(reference.Fit(matrix_, reference_options).ok());

  SchedulerStats::Enable();
  for (const size_t threads :
       {size_t{1}, size_t{2}, size_t{3}, size_t{4}, size_t{0}}) {
    LogisticRegressionOptions options;
    options.threads = threads;
    LogisticRegression model;
    ASSERT_TRUE(model.Fit(matrix_, options).ok());
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    EXPECT_EQ(model.iterations_used(), reference.iterations_used());
    ASSERT_EQ(model.weights().size(), reference.weights().size());
    for (size_t j = 0; j < model.weights().size(); ++j) {
      EXPECT_TRUE(BitIdentical(model.weights()[j], reference.weights()[j]))
          << "weight " << j;
    }
    EXPECT_TRUE(BitIdentical(model.intercept(), reference.intercept()));
  }
  if (!was_enabled) SchedulerStats::Disable();
}

// An externally shared pool (the ClassifierMatcher arrangement) is just a
// schedule, so it cannot change the bits either.
TEST_F(LrParallelTest, SharedPoolMatchesPrivatePool) {
  LogisticRegressionOptions options;
  options.threads = 4;
  LogisticRegression private_pool_model;
  ASSERT_TRUE(private_pool_model.Fit(matrix_, options).ok());

  ThreadPool pool(4);
  LogisticRegression shared_pool_model;
  ASSERT_TRUE(shared_pool_model.Fit(matrix_, options, &pool).ok());
  for (size_t j = 0; j < private_pool_model.weights().size(); ++j) {
    EXPECT_TRUE(BitIdentical(shared_pool_model.weights()[j],
                             private_pool_model.weights()[j]));
  }
  EXPECT_TRUE(BitIdentical(shared_pool_model.intercept(),
                           private_pool_model.intercept()));
}

// The Dataset overload packs into a DenseMatrix and delegates, so the two
// layouts must agree exactly — flat-matrix vs AoS equivalence.
TEST_F(LrParallelTest, FlatMatrixMatchesAosDataset) {
  // Build the scaled AoS dataset the pre-flat-layout code path used.
  StandardScaler aos_scaler;
  ASSERT_TRUE(aos_scaler.Fit(data_).ok());
  Dataset scaled = *aos_scaler.TransformDataset(data_);

  LogisticRegression from_dataset;
  ASSERT_TRUE(from_dataset.Fit(scaled).ok());
  LogisticRegression from_matrix;
  ASSERT_TRUE(from_matrix.Fit(matrix_, LogisticRegressionOptions{}).ok());

  ASSERT_EQ(from_dataset.weights().size(), from_matrix.weights().size());
  for (size_t j = 0; j < from_dataset.weights().size(); ++j) {
    EXPECT_TRUE(
        BitIdentical(from_dataset.weights()[j], from_matrix.weights()[j]));
  }
  EXPECT_TRUE(
      BitIdentical(from_dataset.intercept(), from_matrix.intercept()));
  EXPECT_EQ(from_dataset.iterations_used(), from_matrix.iterations_used());
}

TEST(DenseMatrixTest, PacksDatasetInRowMajorOrder) {
  Dataset data;
  ASSERT_TRUE(data.Add({{1.0, 2.0}, 1}).ok());
  ASSERT_TRUE(data.Add({{3.0, 4.0}, 0}).ok());
  DenseMatrix matrix = *DenseMatrix::FromDataset(data);
  EXPECT_EQ(matrix.rows(), 2u);
  EXPECT_EQ(matrix.cols(), 2u);
  EXPECT_EQ(matrix.positive_count(), 1u);
  EXPECT_EQ(matrix.values(), (std::vector<double>{1.0, 2.0, 3.0, 4.0}));
  EXPECT_EQ(matrix.labels(), (std::vector<int>{1, 0}));
  EXPECT_DOUBLE_EQ(matrix.Row(1)[0], 3.0);
  EXPECT_EQ(matrix.label(1), 0);
}

TEST(DenseMatrixTest, RejectsMalformedInput) {
  EXPECT_TRUE(DenseMatrix::FromDataset(Dataset()).status().IsInvalidArgument());
  EXPECT_TRUE(DenseMatrix::CreateEmpty(0, 4).status().IsInvalidArgument());
  DenseMatrix matrix = *DenseMatrix::CreateEmpty(2, 4);
  const double row[] = {1.0, 2.0, 3.0};
  EXPECT_TRUE(matrix.AddRow(row, 3, 0).IsInvalidArgument());  // wrong width
  EXPECT_TRUE(matrix.AddRow(row, 2, 7).IsInvalidArgument());  // bad label
  EXPECT_TRUE(matrix.AddRow(row, 2, 1).ok());
  EXPECT_EQ(matrix.rows(), 1u);
}

// The scaler's flat path must agree with the AoS path bit-for-bit: same
// sums in the same order, transform applied element-wise in place.
TEST(DenseMatrixTest, ScalerFlatPathMatchesAosPath) {
  Dataset data = MakeTrainingSet(64, 7);
  StandardScaler aos;
  ASSERT_TRUE(aos.Fit(data).ok());
  DenseMatrix matrix = *DenseMatrix::FromDataset(data);
  StandardScaler flat;
  ASSERT_TRUE(flat.Fit(matrix).ok());
  ASSERT_EQ(flat.means().size(), aos.means().size());
  for (size_t j = 0; j < flat.means().size(); ++j) {
    EXPECT_TRUE(BitIdentical(flat.means()[j], aos.means()[j]));
    EXPECT_TRUE(BitIdentical(flat.stds()[j], aos.stds()[j]));
  }

  Dataset aos_scaled = *aos.TransformDataset(data);
  ASSERT_TRUE(flat.TransformInPlace(&matrix).ok());
  for (size_t i = 0; i < matrix.rows(); ++i) {
    for (size_t j = 0; j < matrix.cols(); ++j) {
      EXPECT_TRUE(BitIdentical(matrix.Row(i)[j],
                               aos_scaled.examples()[i].features[j]))
          << "row " << i << " col " << j;
    }
  }
}

TEST(DenseMatrixTest, ScalerTransformInPlaceChecksFit) {
  DenseMatrix matrix = *DenseMatrix::CreateEmpty(2, 1);
  StandardScaler scaler;
  EXPECT_TRUE(scaler.TransformInPlace(&matrix).IsFailedPrecondition());
  EXPECT_TRUE(scaler.Fit(DenseMatrix()).IsInvalidArgument());
}

}  // namespace
}  // namespace prodsyn
