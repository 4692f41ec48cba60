#include "ml/dataset.h"

#include <cassert>
#include <cmath>

namespace retina::ml {

size_t Dataset::NumPositives() const {
  size_t n = 0;
  for (int v : y) n += (v == 1);
  return n;
}

Dataset Dataset::Select(const std::vector<size_t>& rows) const {
  Dataset out;
  out.X = Matrix(rows.size(), X.cols());
  out.y.resize(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    assert(rows[i] < X.rows());
    out.X.SetRow(i, X.RowVec(rows[i]));
    out.y[i] = y[rows[i]];
  }
  return out;
}

namespace {
void SplitByClass(const Dataset& data, std::vector<size_t>* pos,
                  std::vector<size_t>* neg) {
  for (size_t i = 0; i < data.y.size(); ++i) {
    (data.y[i] == 1 ? pos : neg)->push_back(i);
  }
}
}  // namespace

Dataset DownsampleMajority(const Dataset& data, Rng* rng) {
  std::vector<size_t> pos, neg;
  SplitByClass(data, &pos, &neg);
  std::vector<size_t>* majority = pos.size() > neg.size() ? &pos : &neg;
  std::vector<size_t>* minority = pos.size() > neg.size() ? &neg : &pos;
  std::vector<size_t> keep = *minority;
  for (size_t j : rng->SampleWithoutReplacement(majority->size(),
                                                minority->size())) {
    keep.push_back((*majority)[j]);
  }
  rng->Shuffle(&keep);
  return data.Select(keep);
}

Dataset UpDownsample(const Dataset& data, Rng* rng) {
  std::vector<size_t> pos, neg;
  SplitByClass(data, &pos, &neg);
  std::vector<size_t>* majority = pos.size() > neg.size() ? &pos : &neg;
  std::vector<size_t>* minority = pos.size() > neg.size() ? &neg : &pos;
  if (minority->empty()) return data;
  const size_t target = static_cast<size_t>(std::llround(std::sqrt(
      static_cast<double>(majority->size()) *
      static_cast<double>(minority->size()))));
  std::vector<size_t> keep;
  // Downsample the dominant class to `target`.
  for (size_t j :
       rng->SampleWithoutReplacement(majority->size(), target)) {
    keep.push_back((*majority)[j]);
  }
  // Upsample the dominated class (with replacement) to `target`.
  for (size_t i = 0; i < target; ++i) {
    keep.push_back((*minority)[rng->UniformInt(minority->size())]);
  }
  rng->Shuffle(&keep);
  return data.Select(keep);
}

void StandardScaler::Fit(const Matrix& X) {
  const size_t n = X.rows(), d = X.cols();
  mean_.assign(d, 0.0);
  inv_std_.assign(d, 1.0);
  if (n == 0) return;
  for (size_t i = 0; i < n; ++i) {
    const double* row = X.Row(i);
    for (size_t j = 0; j < d; ++j) mean_[j] += row[j];
  }
  for (double& m : mean_) m /= static_cast<double>(n);
  Vec var(d, 0.0);
  for (size_t i = 0; i < n; ++i) {
    const double* row = X.Row(i);
    for (size_t j = 0; j < d; ++j) {
      const double c = row[j] - mean_[j];
      var[j] += c * c;
    }
  }
  for (size_t j = 0; j < d; ++j) {
    const double sd = std::sqrt(var[j] / static_cast<double>(n));
    inv_std_[j] = sd > 1e-12 ? 1.0 / sd : 1.0;
  }
}

void StandardScaler::Transform(Matrix* X) const {
  assert(X->cols() == mean_.size());
  for (size_t i = 0; i < X->rows(); ++i) {
    double* row = X->Row(i);
    for (size_t j = 0; j < X->cols(); ++j) {
      row[j] = (row[j] - mean_[j]) * inv_std_[j];
    }
  }
}

}  // namespace retina::ml
