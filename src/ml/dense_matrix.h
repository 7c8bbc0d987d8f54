// Flat training layout for the correspondence classifier (paper §3.2).
// Dataset stores one heap-allocated std::vector<double> per example;
// DenseMatrix packs the same examples into ONE contiguous row-major buffer
// (plus a labels array), so each LR training pass is a linear scan. It is
// built once from the Dataset, standardized in place by
// StandardScaler::TransformInPlace (no second AoS copy), and passed to
// LogisticRegression::Fit.

#ifndef PRODSYN_ML_DENSE_MATRIX_H_
#define PRODSYN_ML_DENSE_MATRIX_H_

#include <cstddef>
#include <vector>

#include "src/ml/dataset.h"
#include "src/util/result.h"

namespace prodsyn {

/// \brief A dense row-major feature matrix with per-row binary labels.
///
/// Row i occupies values()[i*cols() .. (i+1)*cols()); labels()[i] is 0 or
/// 1. Rows are stored in insertion order, so a matrix built from a
/// Dataset preserves the dataset's example order — the property the
/// deterministic trainer's fixed block boundaries rely on.
class DenseMatrix {
 public:
  DenseMatrix() = default;

  /// \brief Packs `data` into a flat matrix, preserving example order.
  /// Fails on a dimension-0 dataset (nothing to train on).
  static Result<DenseMatrix> FromDataset(const Dataset& data);

  /// \brief An empty matrix with `cols` feature columns and capacity for
  /// `expected_rows` rows (for callers that build row by row).
  static Result<DenseMatrix> CreateEmpty(size_t cols, size_t expected_rows);

  /// \brief Appends one row; `features` must hold exactly cols() values
  /// and `label` must be 0 or 1.
  Status AddRow(const double* features, size_t n, int label);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  bool empty() const { return rows_ == 0; }

  /// \brief Contiguous pointer to row i's cols() features.
  const double* Row(size_t i) const { return values_.data() + i * cols_; }
  double* MutableRow(size_t i) { return values_.data() + i * cols_; }

  int label(size_t i) const { return labels_[i]; }
  /// \brief Count of rows with label == 1.
  size_t positive_count() const { return positives_; }

  const std::vector<double>& values() const { return values_; }
  const std::vector<int>& labels() const { return labels_; }

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  size_t positives_ = 0;
  std::vector<double> values_;  ///< rows_ * cols_, row-major
  std::vector<int> labels_;     ///< rows_
};

}  // namespace prodsyn

#endif  // PRODSYN_ML_DENSE_MATRIX_H_
