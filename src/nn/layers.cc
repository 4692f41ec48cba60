#include "nn/layers.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/simd.h"

namespace retina::nn {

Vec Dense::Forward(const Vec& x) const {
  assert(x.size() == W_.value.cols());
  const size_t out = W_.value.rows();
  Vec y(out);
  simd::MatVec(W_.value.Row(0), out, W_.value.cols(), x.data(), y.data());
  for (size_t i = 0; i < out; ++i) y[i] += b_.value(0, i);
  return y;
}

void Dense::ForwardBatchRaw(const double* x, size_t n, double* y) const {
  const size_t out = W_.value.rows();
  simd::MatMulTransposedB(x, n, W_.value.cols(), W_.value.Row(0), out, y);
  for (size_t r = 0; r < n; ++r) {
    double* row = y + r * out;
    for (size_t i = 0; i < out; ++i) row[i] += b_.value(0, i);
  }
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
  Vec dx(W_.value.cols());
  InputGradRaw(dy.data(), dx.data());
  return dx;
}

void Dense::InputGradRaw(const double* dy, double* dx) const {
  const size_t in = W_.value.cols();
  std::fill(dx, dx + in, 0.0);
  simd::TransposeMatVecAcc(W_.value.Row(0), W_.value.rows(), in, dy, dx);
}

void Dense::BackwardRow(size_t r, const double* x, const double* dy,
                        size_t n, size_t chunk, double* partial) {
  assert(chunk > 0);
  const size_t in = W_.value.cols();
  const size_t out = W_.value.rows();
  double* grow = W_.grad.Row(r);
  for (size_t begin = 0; begin < n; begin += chunk) {
    const size_t end = std::min(n, begin + chunk);
    // A chunk without a nonzero term would add zeros: skip it.
    bool any = false;
    double db = 0.0;
    for (size_t i = begin; i < end; ++i) {
      const double d = dy[i * out + r];
      if (d == 0.0) continue;
      if (!any) std::fill(partial, partial + in, 0.0);
      any = true;
      // On x86 Axpy's unfused multiply-add is Backward's scalar loop.
      simd::Axpy(d, x + i * in, partial, in);
      db += d;
    }
    if (!any) continue;
    simd::Axpy(1.0, partial, grow, in);
    b_.grad(0, r) += db;
  }
}

Vec Relu(const Vec& x) {
  Vec y(x.size());
  for (size_t i = 0; i < x.size(); ++i) y[i] = std::max(0.0, x[i]);
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
