// Binary logistic regression (paper §3.2: "We employ a classifier that
// uses logistic regression to predict whether a candidate ⟨A,B,M,C⟩ tuple
// is actually an attribute correspondence").
//
// Training is full-batch gradient descent with L2 regularization over a
// flat row-major DenseMatrix. Each epoch shards the rows into FIXED
// numeric blocks (boundaries depend only on the row count and
// `block_rows`, never on the thread count or the ParallelFor chunk plan),
// computes each block's partial gradient into its own pre-sized slot on
// the pool, and combines the slots with a sequential in-order pairwise
// tree reduce — so the trained weights are bit-identical for any
// `threads` value and any scheduling plan, the same determinism contract
// as every other parallel stage (docs/ARCHITECTURE.md).

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
  double learning_rate = 0.5;
  /// Heavy-ball momentum (0 disables). With standardized features the
  /// default cuts convergence by roughly an order of magnitude while
  /// remaining fully deterministic.
  double momentum = 0.9;
  size_t max_iterations = 2000;
  /// L2 penalty λ applied to weights (not the intercept).
  double l2 = 1e-4;
  /// Stop when the max absolute gradient component falls below this.
  double gradient_tolerance = 1e-6;
  bool fit_intercept = true;
  /// Reweight classes inversely to frequency (the auto-generated training
  /// set is imbalanced: ~1 positive per several negatives).
  bool balance_classes = true;

  /// Worker threads for the per-epoch gradient sweep; 0 = hardware
  /// default, 1 = fully sequential (no pool). ClassifierMatcher overrides
  /// this with its `offline_threads` knob at Generate time.
  size_t threads = 1;
  /// Rows per numeric block. Block boundaries — and therefore the
  /// floating-point reduce order — depend ONLY on this and the row count,
  /// so changing `threads` never changes the trained weights. Changing
  /// `block_rows` itself is a (documented) numeric change, like changing
  /// the learning rate.
  size_t block_rows = 256;
};

/// \brief Trained binary logistic model.
class LogisticRegression {
 public:
  LogisticRegression() = default;

  /// \brief Fits on the flat matrix. Requires at least one example of
  /// each class.
  ///
  /// `pool` is an optional externally owned pool to run the per-epoch
  /// sweeps on (ClassifierMatcher shares one pool between LR training and
  /// candidate scoring); when null and options.threads != 1, Fit creates
  /// a private pool. `epoch_stage` is optional observability: one latency
  /// observation per epoch (the `lr.epoch` histogram) — measurements
  /// only, outside the determinism contract.
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

  /// \brief Number of gradient-descent iterations the last Fit used.
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
