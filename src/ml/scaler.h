// Per-feature standardization (zero mean, unit variance). Logistic
// regression's L2 penalty is defined on the standardized features; the
// Newton trainer itself is scale-invariant.

#ifndef PRODSYN_ML_SCALER_H_
#define PRODSYN_ML_SCALER_H_

#include <vector>

#include "src/ml/dataset.h"
#include "src/ml/dense_matrix.h"
#include "src/util/result.h"

namespace prodsyn {

/// \brief z = (x − mean) / std, with std clamped away from zero for
/// constant features.
class StandardScaler {
 public:
  /// \brief Computes means and standard deviations from `data`.
  Status Fit(const Dataset& data);

  /// \brief Flat-matrix overload: same sums in the same row order, so the
  /// fitted means/stds are bit-identical to Fit(Dataset) on the
  /// equivalent dataset.
  Status Fit(const DenseMatrix& data);

  bool fitted() const { return !means_.empty(); }

  /// \brief Transforms one feature vector in place.
  Status Transform(std::vector<double>* features) const;

  /// \brief Standardizes every row of the flat matrix in place — the
  /// training path's replacement for TransformDataset, which produced a
  /// second AoS copy of the whole training set.
  Status TransformInPlace(DenseMatrix* data) const;

  /// \brief Returns a standardized copy of an entire dataset.
  Result<Dataset> TransformDataset(const Dataset& data) const;

  const std::vector<double>& means() const { return means_; }
  const std::vector<double>& stds() const { return stds_; }

  /// \brief Reinstates a previously fitted scaler from serialized state
  /// (the snapshot restore path). InvalidArgument unless the two vectors
  /// are nonempty and the same length.
  Status Restore(std::vector<double> means, std::vector<double> stds);

 private:
  std::vector<double> means_;
  std::vector<double> stds_;
};

}  // namespace prodsyn

#endif  // PRODSYN_ML_SCALER_H_
