#include "src/ml/logistic_regression.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "src/util/check.h"
#include "src/util/sched_stats.h"

namespace prodsyn {

double Sigmoid(double z) {
  if (z >= 0) {
    return 1.0 / (1.0 + std::exp(-z));
  }
  const double e = std::exp(z);
  return e / (1.0 + e);
}

namespace {

// ParallelFor grain of the per-epoch sweep, in blocks of `block_rows`
// rows. One epoch is short (a seed-scale world trains on 17 blocks, ~0.1
// ms per epoch at 4 threads), so single-block chunks of ~15 us let the
// claim and dispatch cost show; four blocks per chunk give that epoch 5
// chunks for 4 workers and leave large training sets at ~8 chunks per
// worker.
constexpr size_t kEpochGrain = 4;

// Contiguous dot product with four independent accumulators combined in a
// FIXED order: deterministic (the order never depends on threads or chunk
// plans — only on `dim`), and the accumulator separation gives the
// compiler the ILP/SLP freedom a strict single-accumulator reduction
// denies it under IEEE semantics.
double DotRow(const double* w, const double* x, size_t dim) {
  double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
  size_t j = 0;
  for (; j + 4 <= dim; j += 4) {
    a0 += w[j] * x[j];
    a1 += w[j + 1] * x[j + 1];
    a2 += w[j + 2] * x[j + 2];
    a3 += w[j + 3] * x[j + 3];
  }
  double tail = 0.0;
  for (; j < dim; ++j) tail += w[j] * x[j];
  return ((a0 + a2) + (a1 + a3)) + tail;
}

// y[j] += a * x[j]: no cross-iteration dependence, so gcc/clang
// auto-vectorize this under strict IEEE semantics (verified with
// -fopt-info-vec; see docs/PERFORMANCE.md).
void Axpy(double a, const double* x, double* y, size_t dim) {
  for (size_t j = 0; j < dim; ++j) y[j] += a * x[j];
}

// Sequential in-order pairwise tree reduce over the per-block gradient
// slots: slot b absorbs slot b+stride with the stride doubling, so the
// combination order is a fixed function of the block count alone —
// bit-identical for any thread count and chunk plan, and
// better-conditioned than a left-to-right sweep. Runs on the calling
// thread after the ParallelFor latch drains. The reduced sums land in
// slot 0.
void ReduceSlotsInOrder(std::vector<double>* slots, size_t blocks,
                        size_t stride_doubles) {
  for (size_t stride = 1; stride < blocks; stride *= 2) {
    for (size_t b = 0; b + stride < blocks; b += 2 * stride) {
      double* dst = slots->data() + b * stride_doubles;
      const double* src = slots->data() + (b + stride) * stride_doubles;
      for (size_t j = 0; j < stride_doubles; ++j) dst[j] += src[j];
    }
  }
}

}  // namespace

Status LogisticRegression::Fit(const Dataset& data,
                               const LogisticRegressionOptions& options) {
  if (data.empty()) {
    return Status::InvalidArgument("cannot fit on empty dataset");
  }
  PRODSYN_ASSIGN_OR_RETURN(DenseMatrix matrix, DenseMatrix::FromDataset(data));
  return Fit(matrix, options);
}

Status LogisticRegression::Fit(const DenseMatrix& data,
                               const LogisticRegressionOptions& options,
                               ThreadPool* pool, StageCounters* epoch_stage) {
  if (data.empty()) {
    return Status::InvalidArgument("cannot fit on empty dataset");
  }
  const size_t n = data.rows();
  const size_t positives = data.positive_count();
  if (positives == 0 || positives == n) {
    return Status::FailedPrecondition(
        "training set must contain both classes (positives=" +
        std::to_string(positives) + ", total=" + std::to_string(n) + ")");
  }

  // Class weights: total mass of each class equals n/2 when balancing.
  const double negatives = static_cast<double>(n - positives);
  const double w_pos =
      options.balance_classes
          ? static_cast<double>(n) / (2.0 * static_cast<double>(positives))
          : 1.0;
  const double w_neg =
      options.balance_classes ? static_cast<double>(n) / (2.0 * negatives)
                              : 1.0;
  const double total_weight =
      w_pos * static_cast<double>(positives) + w_neg * negatives;

  const size_t dim = data.cols();
  weights_.assign(dim, 0.0);
  intercept_ = 0.0;

  // Fixed numeric blocks: boundaries depend only on n and block_rows, so
  // the per-block partial sums — and therefore the reduce below — are
  // independent of how ParallelFor schedules the blocks onto workers.
  const size_t block_rows = std::max<size_t>(1, options.block_rows);
  const size_t blocks = (n + block_rows - 1) / block_rows;
  const size_t slot_stride = dim + 1;  // gradient components + intercept
  std::vector<double> slots(blocks * slot_stride, 0.0);

  std::unique_ptr<ThreadPool> owned_pool;
  if (pool == nullptr) {
    owned_pool = ThreadPool::ForItems(options.threads, blocks);
    pool = owned_pool.get();
  }

  // Each block writes only its own slot; weights_/intercept_ are read-only
  // inside an epoch and only updated between epochs (after the ParallelFor
  // latch drains). // lint: sharded
  auto block_body = [&](size_t block_begin, size_t block_end) {
    for (size_t b = block_begin; b < block_end; ++b) {
      double* slot = slots.data() + b * slot_stride;
      std::fill(slot, slot + slot_stride, 0.0);
      const size_t row_begin = b * block_rows;
      const size_t row_end = std::min(n, row_begin + block_rows);
      for (size_t i = row_begin; i < row_end; ++i) {
        const double* x = data.Row(i);
        const double p = Sigmoid(intercept_ + DotRow(weights_.data(), x, dim));
        const int label = data.label(i);
        const double w = label == 1 ? w_pos : w_neg;
        const double err = w * (p - static_cast<double>(label));
        Axpy(err, x, slot, dim);
        slot[dim] += err;
      }
    }
  };

  std::vector<double> grad(dim, 0.0);
  std::vector<double> velocity(dim, 0.0);
  double intercept_velocity = 0.0;
  iterations_used_ = 0;
  for (size_t iter = 0; iter < options.max_iterations; ++iter) {
    ++iterations_used_;
    ScopedStageTimer epoch_timer(epoch_stage);
    ThreadPool::ParallelFor(pool, "lr.epoch", blocks, kEpochGrain,
                            block_body);
    // The in-order reduce and the weight update are the epoch's mandatory
    // sequential tail — the lr.epoch region's Amdahl serial component.
    ScopedMergeTimer merge_timer(pool, "lr.epoch");
    ReduceSlotsInOrder(&slots, blocks, slot_stride);
    const double* sums = slots.data();

    double max_grad = 0.0;
    for (size_t j = 0; j < dim; ++j) {
      grad[j] = sums[j] / total_weight + options.l2 * weights_[j];
      max_grad = std::max(max_grad, std::fabs(grad[j]));
    }
    const double grad_intercept = sums[dim] / total_weight;
    if (options.fit_intercept) {
      max_grad = std::max(max_grad, std::fabs(grad_intercept));
    }
    for (size_t j = 0; j < dim; ++j) {
      velocity[j] = options.momentum * velocity[j] -
                    options.learning_rate * grad[j];
      weights_[j] += velocity[j];
      // A diverging optimizer (NaN/inf weight) would poison every later
      // prediction while still "converging" by the gradient test.
      PRODSYN_DCHECK_FINITE(weights_[j]);
    }
    if (options.fit_intercept) {
      intercept_velocity = options.momentum * intercept_velocity -
                           options.learning_rate * grad_intercept;
      intercept_ += intercept_velocity;
    }
    if (max_grad < options.gradient_tolerance) break;
  }
  return Status::OK();
}

Result<double> LogisticRegression::PredictProbability(
    const std::vector<double>& features) const {
  if (!fitted()) {
    return Status::FailedPrecondition("model not fitted");
  }
  if (features.size() != weights_.size()) {
    return Status::InvalidArgument(
        "feature dimension " + std::to_string(features.size()) +
        " does not match model dimension " + std::to_string(weights_.size()));
  }
  double z = intercept_;
  for (size_t j = 0; j < features.size(); ++j) z += weights_[j] * features[j];
  const double p = Sigmoid(z);
  PRODSYN_DCHECK_PROB(p);
  return p;
}

Result<bool> LogisticRegression::Predict(const std::vector<double>& features,
                                         double threshold) const {
  PRODSYN_ASSIGN_OR_RETURN(double p, PredictProbability(features));
  return p >= threshold;
}

Status LogisticRegression::Restore(std::vector<double> weights,
                                   double intercept, size_t iterations_used) {
  if (weights.empty()) {
    return Status::InvalidArgument("model restore needs nonempty weights");
  }
  weights_ = std::move(weights);
  intercept_ = intercept;
  iterations_used_ = iterations_used;
  return Status::OK();
}

}  // namespace prodsyn
