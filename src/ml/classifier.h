// Abstract binary classifier interface shared by the hate-generation model
// zoo (Table IV) and the feature-engineered retweet baselines (Table VI).

#ifndef RETINA_ML_CLASSIFIER_H_
#define RETINA_ML_CLASSIFIER_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "common/vec.h"

namespace retina::ml {

/// \brief Interface for binary classifiers with probabilistic outputs.
class BinaryClassifier {
 public:
  virtual ~BinaryClassifier() = default;

  /// Trains on X (rows = samples) with labels y in {0, 1}.
  virtual Status Fit(const Matrix& X, const std::vector<int>& y) = 0;

  /// P(y = 1 | x) for one row.
  virtual double PredictProba(const Vec& x) const = 0;

  /// Display name (Table IV / VI row label).
  virtual std::string Name() const = 0;

  /// Probability for each row of X.
  Vec PredictProbaBatch(const Matrix& X) const {
    Vec out(X.rows());
    for (size_t i = 0; i < X.rows(); ++i) out[i] = PredictProba(X.RowVec(i));
    return out;
  }

  /// 0/1 prediction at threshold 0.5.
  std::vector<int> PredictBatch(const Matrix& X) const {
    const Vec p = PredictProbaBatch(X);
    std::vector<int> out(p.size());
    for (size_t i = 0; i < p.size(); ++i) out[i] = p[i] >= 0.5 ? 1 : 0;
    return out;
  }
};

}  // namespace retina::ml

#endif  // RETINA_ML_CLASSIFIER_H_
