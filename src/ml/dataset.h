// Labeled dataset container plus split / resampling utilities.

#ifndef RETINA_ML_DATASET_H_
#define RETINA_ML_DATASET_H_

#include <vector>

#include "common/rng.h"
#include "common/vec.h"

namespace retina::ml {

/// \brief Dense feature matrix with binary labels (1 = positive class).
struct Dataset {
  Matrix X;
  std::vector<int> y;

  size_t NumRows() const { return X.rows(); }
  size_t NumFeatures() const { return X.cols(); }
  size_t NumPositives() const;

  /// Subset by row indices.
  Dataset Select(const std::vector<size_t>& rows) const;
};

/// Downsamples the majority class to the minority count (paper's "DS").
Dataset DownsampleMajority(const Dataset& data, Rng* rng);

/// The paper's "US+DS": both classes resampled to the geometric mean of
/// the class counts (upsampling the dominated class, downsampling the
/// dominant one).
Dataset UpDownsample(const Dataset& data, Rng* rng);

/// \brief Per-feature standardization (zero mean, unit variance), fit on
/// train and applied to both splits.
class StandardScaler {
 public:
  void Fit(const Matrix& X);
  void Transform(Matrix* X) const;
  bool fitted() const { return !mean_.empty(); }

 private:
  Vec mean_, inv_std_;
};

}  // namespace retina::ml

#endif  // RETINA_ML_DATASET_H_
