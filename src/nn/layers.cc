#include "nn/layers.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/simd.h"

namespace retina::nn {

void Dense::ForwardRaw(const double* x, double* y) const {
  const size_t out = W_.value.rows();
  simd::MatVec(W_.value.Row(0), out, W_.value.cols(), x, y);
  for (size_t i = 0; i < out; ++i) y[i] += b_.value(0, i);
}

void Dense::ForwardBatchRaw(const double* x, size_t n, double* y) const {
  const size_t out = W_.value.rows();
  simd::MatMulTransposedB(x, n, W_.value.cols(), W_.value.Row(0), out, y);
  for (size_t r = 0; r < n; ++r) {
    double* row = y + r * out;
    for (size_t i = 0; i < out; ++i) row[i] += b_.value(0, i);
  }
}

Vec Dense::Forward(const Vec& x) const {
  assert(x.size() == W_.value.cols());
  Vec y(W_.value.rows());
  ForwardRaw(x.data(), y.data());
  return y;
}

Vec Dense::Backward(const Vec& x, const Vec& dy) {
  assert(dy.size() == W_.value.rows());
  assert(x.size() == W_.value.cols());
  // dW += dy x^T ; db += dy ; dx = W^T dy.
  for (size_t i = 0; i < dy.size(); ++i) {
    if (dy[i] == 0.0) continue;
    double* grow = W_.grad.Row(i);
    for (size_t j = 0; j < x.size(); ++j) grow[j] += dy[i] * x[j];
    b_.grad(0, i) += dy[i];
  }
  return W_.value.TransposeMatVec(dy);
}

Vec Relu(const Vec& x) {
  Vec y(x.size());
  for (size_t i = 0; i < x.size(); ++i) y[i] = std::max(0.0, x[i]);
  return y;
}

Vec ReluBackward(const Vec& x, const Vec& dy) {
  assert(x.size() == dy.size());
  Vec dx(x.size());
  for (size_t i = 0; i < x.size(); ++i) dx[i] = x[i] > 0.0 ? dy[i] : 0.0;
  return dx;
}

Vec SigmoidVec(const Vec& x) {
  Vec y(x.size());
  for (size_t i = 0; i < x.size(); ++i) y[i] = Sigmoid(x[i]);
  return y;
}

Vec LayerNorm(const Vec& x, double eps) {
  const double mu = Mean(x);
  const double var = Variance(x);
  const double inv = 1.0 / std::sqrt(var + eps);
  Vec y(x.size());
  for (size_t i = 0; i < x.size(); ++i) y[i] = (x[i] - mu) * inv;
  return y;
}

void LayerNormInPlace(double* x, size_t n, double eps) {
  // Mirrors LayerNorm exactly: mean and variance accumulate in index
  // order with the same scalar loops Mean/Variance use.
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) sum += x[i];
  const double mu = n == 0 ? 0.0 : sum / static_cast<double>(n);
  double acc = 0.0;
  for (size_t i = 0; i < n; ++i) acc += (x[i] - mu) * (x[i] - mu);
  const double var = n == 0 ? 0.0 : acc / static_cast<double>(n);
  const double inv = 1.0 / std::sqrt(var + eps);
  for (size_t i = 0; i < n; ++i) x[i] = (x[i] - mu) * inv;
}

Vec LayerNormBackward(const Vec& x, const Vec& dy, double eps) {
  assert(x.size() == dy.size());
  const size_t n = x.size();
  const double nn = static_cast<double>(n);
  const double mu = Mean(x);
  const double var = Variance(x);
  const double inv = 1.0 / std::sqrt(var + eps);
  // y_i = (x_i - mu) * inv;  standard layer-norm gradient:
  // dx = inv * (dy - mean(dy) - y * mean(dy * y))
  Vec y(n);
  for (size_t i = 0; i < n; ++i) y[i] = (x[i] - mu) * inv;
  double mean_dy = 0.0, mean_dyy = 0.0;
  for (size_t i = 0; i < n; ++i) {
    mean_dy += dy[i];
    mean_dyy += dy[i] * y[i];
  }
  mean_dy /= nn;
  mean_dyy /= nn;
  Vec dx(n);
  for (size_t i = 0; i < n; ++i) {
    dx[i] = inv * (dy[i] - mean_dy - y[i] * mean_dyy);
  }
  return dx;
}

double WeightedBce::Loss(double p, int target) const {
  const double eps = 1e-12;
  p = std::clamp(p, eps, 1.0 - eps);
  if (target == 1) return -pos_weight * std::log(p);
  return -std::log(1.0 - p);
}

double WeightedBce::GradLogit(double p, int target) const {
  // d/dz of the weighted BCE with p = sigmoid(z):
  //   target=1: -w (1-p);  target=0: p.
  if (target == 1) return -pos_weight * (1.0 - p);
  return p;
}

double PositiveClassWeight(size_t total, size_t positives, double lambda) {
  if (positives == 0 || total == 0 || positives >= total) return 1.0;
  return lambda * (std::log(static_cast<double>(total)) -
                   std::log(static_cast<double>(positives)));
}

}  // namespace retina::nn
