// Dimensionality reduction: PCA (randomized subspace iteration) and
// K-best feature selection by mutual information — the "Proc." variants of
// Table IV (PCA with 50 components; top-K with K=50).

#ifndef RETINA_ML_PREPROCESS_H_
#define RETINA_ML_PREPROCESS_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "common/vec.h"

namespace retina::ml {

struct PcaOptions {
  size_t n_components = 50;
  /// Subspace (power) iterations for the randomized range finder.
  int power_iterations = 4;
  /// Oversampling columns beyond n_components.
  size_t oversample = 10;
  uint64_t seed = 5;
};

/// \brief Principal component analysis via randomized subspace iteration.
///
/// Exact eigendecomposition of the 3645 x 3645 covariance the paper's
/// feature space induces is avoided; randomized range finding with a few
/// power iterations recovers the leading 50 components to working accuracy.
class Pca {
 public:
  explicit Pca(PcaOptions options = {}) : options_(options) {}

  /// Fits components on X (rows = samples). Returns InvalidArgument when
  /// n_components exceeds min(rows, cols).
  Status Fit(const Matrix& X);

  /// Projects one centered sample onto the components.
  Vec Transform(const Vec& x) const;

  /// Projects every row of X.
  Matrix TransformBatch(const Matrix& X) const;

  /// Explained variance per component (descending).
  const Vec& explained_variance() const { return explained_variance_; }

 private:
  PcaOptions options_;
  Vec mean_;
  Matrix components_;  // n_components x d
  Vec explained_variance_;
};

/// \brief Select the K features with the highest mutual information with
/// the binary label (features discretized into equal-frequency bins).
class KBestMutualInfo {
 public:
  explicit KBestMutualInfo(size_t k, size_t bins = 8) : k_(k), bins_(bins) {}

  Status Fit(const Matrix& X, const std::vector<int>& y);

  /// Indices of the selected features (descending MI).
  const std::vector<size_t>& selected() const { return selected_; }

  /// Keeps only the selected columns of x.
  Vec Transform(const Vec& x) const;

  Matrix TransformBatch(const Matrix& X) const;

  /// MI score per original feature.
  const Vec& scores() const { return scores_; }

 private:
  size_t k_;
  size_t bins_;
  std::vector<size_t> selected_;
  Vec scores_;
};

}  // namespace retina::ml

#endif  // RETINA_ML_PREPROCESS_H_
