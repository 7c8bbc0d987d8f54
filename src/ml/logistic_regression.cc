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

// Rows per numeric block: block boundaries — and so the floating-point
// reduce order — depend only on this and the row count.
constexpr size_t kBlockRows = 256;
// Safety cap on Newton iterations; every fit in this repo needs 8-13.
constexpr size_t kMaxIterations = 100;

// y[j] += a * x[j]: no cross-iteration dependence, so gcc/clang
// auto-vectorize it under strict IEEE semantics.
void Axpy(double a, const double* x, double* y, size_t n) {
  for (size_t j = 0; j < n; ++j) y[j] += a * x[j];
}

// Sequential in-order pairwise tree reduce over the per-block slots: slot
// b absorbs slot b+stride with the stride doubling, so the combination
// order — and the sums left in slot 0 — are a fixed function of the block
// count alone, whatever the thread count or chunk plan.
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

// Solves A·x = b in place for the symmetric n×n matrix A given as its
// packed lower triangle (row i holds columns 0..i at offset i(i+1)/2),
// overwriting A with its Cholesky factor L and b with x. False on a
// non-positive (or NaN) pivot: A is not positive definite.
bool CholeskySolve(double* a, double* b, size_t n) {
  auto at = [a](size_t i, size_t j) -> double& {
    return a[i * (i + 1) / 2 + j];
  };
  for (size_t j = 0; j < n; ++j) {
    for (size_t k = 0; k < j; ++k) at(j, j) -= at(j, k) * at(j, k);
    if (!(at(j, j) > 0.0)) return false;
    at(j, j) = std::sqrt(at(j, j));
    for (size_t i = j + 1; i < n; ++i) {
      for (size_t k = 0; k < j; ++k) at(i, j) -= at(i, k) * at(j, k);
      at(i, j) /= at(j, j);
    }
  }
  for (size_t i = 0; i < n; ++i) {  // L·y = b
    for (size_t k = 0; k < i; ++k) b[i] -= at(i, k) * b[k];
    b[i] /= at(i, i);
  }
  for (size_t i = n; i-- > 0;) {  // Lᵀ·x = y
    for (size_t k = i + 1; k < n; ++k) b[i] -= at(k, i) * b[k];
    b[i] /= at(i, i);
  }
  return true;
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
  weights_.clear();
  intercept_ = 0.0;
  iterations_used_ = 0;
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

  // Class weights: each class carries a total mass of n/2 (the
  // auto-generated training set has ~1 positive per dozen negatives).
  const double negatives = static_cast<double>(n - positives);
  const double w_pos =
      static_cast<double>(n) / (2.0 * static_cast<double>(positives));
  const double w_neg = static_cast<double>(n) / (2.0 * negatives);
  const double total_weight =
      w_pos * static_cast<double>(positives) + w_neg * negatives;

  // θ = (weights, intercept): the intercept is the weight of a constant-1
  // feature appended to every row. A slot holds the block's gradient
  // sums, then its packed lower-triangle Hessian sums.
  const size_t dim = data.cols();
  const size_t params = dim + 1;
  const size_t hessian_size = params * (params + 1) / 2;
  const size_t slot_stride = params + hessian_size;
  const size_t blocks = (n + kBlockRows - 1) / kBlockRows;
  std::vector<double> slots(blocks * slot_stride, 0.0);

  std::unique_ptr<ThreadPool> owned_pool;
  if (pool == nullptr) {
    owned_pool = ThreadPool::ForItems(options.threads, blocks);
    pool = owned_pool.get();
  }

  std::vector<double> theta(params, 0.0);
  // Each block writes only its own slot; theta is read-only inside a pass
  // and only updated between passes (after the ParallelFor latch drains).
  // lint: sharded
  auto block_body = [&](size_t block_begin, size_t block_end) {
    std::vector<double> x(params, 1.0);  // the row, then the constant 1
    for (size_t b = block_begin; b < block_end; ++b) {
      double* slot = slots.data() + b * slot_stride;
      std::fill(slot, slot + slot_stride, 0.0);
      const size_t row_end = std::min(n, (b + 1) * kBlockRows);
      for (size_t i = b * kBlockRows; i < row_end; ++i) {
        std::copy_n(data.Row(i), dim, x.begin());
        double z = 0.0;
        for (size_t j = 0; j < params; ++j) z += theta[j] * x[j];
        const double p = Sigmoid(z);
        const int label = data.label(i);
        const double c = label == 1 ? w_pos : w_neg;
        Axpy(c * (p - static_cast<double>(label)), x.data(), slot, params);
        const double h = c * p * (1.0 - p);
        for (size_t j = 0; j < params; ++j) {
          Axpy(h * x[j], x.data(), slot + params + j * (j + 1) / 2, j + 1);
        }
      }
    }
  };

  std::vector<double> grad(params), hessian(hessian_size);
  while (iterations_used_ < kMaxIterations) {
    ++iterations_used_;
    ScopedStageTimer epoch_timer(epoch_stage);
    ThreadPool::ParallelFor(pool, "lr.epoch", blocks, /*grain=*/1,
                            block_body);
    // The in-order reduce and the Newton solve are the pass's mandatory
    // sequential tail — the lr.epoch region's Amdahl serial component.
    ScopedMergeTimer merge_timer(pool, "lr.epoch");
    ReduceSlotsInOrder(&slots, blocks, slot_stride);
    const double* sums = slots.data();

    // Gradient and Hessian at θ (L2 on the weights only). A NaN gradient
    // fails the tolerance test, so it reaches the solve and fails there.
    bool converged = true;
    for (size_t j = 0; j < params; ++j) {
      grad[j] = sums[j] / total_weight + (j < dim ? kL2 * theta[j] : 0.0);
      converged = converged && std::fabs(grad[j]) <= kGradientTolerance;
    }
    if (converged) break;
    for (size_t k = 0; k < hessian_size; ++k) {
      hessian[k] = sums[params + k] / total_weight;
    }
    for (size_t j = 0; j < dim; ++j) hessian[j * (j + 3) / 2] += kL2;
    // An iterate so far off that every row's p(1 - p) underflows to 0
    // leaves the intercept pivot at 0: it fails here instead of producing
    // NaN weights.
    if (!CholeskySolve(hessian.data(), grad.data(), params)) {
      return Status::Internal(
          "logistic regression Newton system is not positive definite");
    }
    for (size_t j = 0; j < params; ++j) {
      theta[j] -= grad[j];
      PRODSYN_DCHECK_FINITE(theta[j]);
    }
  }
  weights_.assign(theta.begin(), theta.end() - 1);
  intercept_ = theta.back();
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
