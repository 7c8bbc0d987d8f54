// Binary logistic regression (paper §3.2: "We employ a classifier that
// uses logistic regression to predict whether a candidate ⟨A,B,M,C⟩ tuple
// is actually an attribute correspondence").
//
// Fit minimizes class-balanced log-loss plus L2 on the weights (not the
// intercept) by exact Newton (IRLS). Each iteration is one pass over the
// flat row-major DenseMatrix in FIXED 256-row blocks; each block writes
// its gradient and lower-triangle Hessian sums into its own slot on the
// pool, an in-order tree reduce combines the slots, and the Cholesky
// solve for the step runs on the calling thread — so the weights are
// bit-identical for any `threads` value and any scheduling plan
// (docs/ARCHITECTURE.md).

#ifndef PRODSYN_ML_LOGISTIC_REGRESSION_H_
#define PRODSYN_ML_LOGISTIC_REGRESSION_H_

#include <vector>

#include "src/ml/dataset.h"
#include "src/ml/dense_matrix.h"
#include "src/util/result.h"
#include "src/util/stage_metrics.h"
#include "src/util/thread_pool.h"

namespace prodsyn {

/// \brief Training options for LogisticRegression.
struct LogisticRegressionOptions {
  /// Worker threads for each pass over the data; 0 = hardware default,
  /// 1 = fully sequential (no pool). ClassifierMatcher overrides this
  /// with its `offline_threads` knob at Generate time.
  size_t threads = 1;
};

/// \brief Trained binary logistic model.
class LogisticRegression {
 public:
  LogisticRegression() = default;

  /// \brief Fit stops once every gradient component (weights and
  /// intercept) is at most this in magnitude.
  static constexpr double kGradientTolerance = 1e-8;
  /// \brief L2 penalty λ: the objective adds (λ/2)·‖weights‖².
  static constexpr double kL2 = 1e-4;

  /// \brief Fits on the flat matrix. Requires at least one example of
  /// each class. Internal (and no model) if a Newton system is not
  /// positive definite: non-finite features, or a diverging iterate.
  ///
  /// `pool` is an optional externally owned pool to run the passes on
  /// (ClassifierMatcher shares its one offline pool); when null and
  /// options.threads != 1, Fit creates a private pool. `epoch_stage` is
  /// optional observability: one latency observation per pass (the
  /// `lr.epoch` histogram), outside the determinism contract.
  Status Fit(const DenseMatrix& data,
             const LogisticRegressionOptions& options = {},
             ThreadPool* pool = nullptr, StageCounters* epoch_stage = nullptr);

  /// \brief Fits on an AoS dataset by packing it into a DenseMatrix
  /// first; bit-identical to the flat-matrix overload.
  Status Fit(const Dataset& data, const LogisticRegressionOptions& options = {});

  bool fitted() const { return !weights_.empty(); }

  /// \brief P(label = 1 | features) in [0, 1].
  Result<double> PredictProbability(const std::vector<double>& features) const;

  /// \brief Convenience: probability ≥ threshold.
  Result<bool> Predict(const std::vector<double>& features,
                       double threshold = 0.5) const;

  const std::vector<double>& weights() const { return weights_; }
  double intercept() const { return intercept_; }

  /// \brief Newton iterations (passes over the data) the last Fit used.
  /// A fit that reaches the cap of 100 keeps the last iterate.
  size_t iterations_used() const { return iterations_used_; }

  /// \brief Reinstates a previously trained model from serialized state
  /// (the snapshot restore path): the exact bit patterns of `weights`
  /// and `intercept` become the model, so predictions are bit-identical
  /// to the model that was saved. InvalidArgument on empty weights.
  Status Restore(std::vector<double> weights, double intercept,
                 size_t iterations_used);

 private:
  std::vector<double> weights_;
  double intercept_ = 0.0;
  size_t iterations_used_ = 0;
};

/// \brief Numerically stable logistic function.
double Sigmoid(double z);

}  // namespace prodsyn

#endif  // PRODSYN_ML_LOGISTIC_REGRESSION_H_
