#include "common/vec.h"

#include <algorithm>
#include <cmath>

#include "common/simd.h"

namespace retina {

Matrix Matrix::MatMul(const Matrix& other) const {
  assert(cols_ == other.rows_);
  Matrix out(rows_, other.cols_);
  const size_t N = other.cols_, K = cols_;
  // Small products keep the original k-outer loop; the transpose pays off
  // only once B no longer fits comfortably in cache lines per row. The
  // inner accumulation is axpy-shaped, so it routes through the dispatched
  // element-wise axpy kernel (bit-identical to the scalar loop on x86).
  if (rows_ * N * K < 16 * 1024) {
    for (size_t i = 0; i < rows_; ++i) {
      const double* arow = Row(i);
      double* orow = out.Row(i);
      for (size_t k = 0; k < K; ++k) {
        const double aik = arow[k];
        if (aik == 0.0) continue;
        simd::Axpy(aik, other.Row(k), orow, N);
      }
    }
    return out;
  }
  // Transposed-B form: C(i,j) = dot(A row i, B^T row j) streams both
  // operands contiguously through the dispatched dot kernel. Per-entry
  // k-order is ascending either way, so under the scalar backend results
  // match the naive kernel bit-for-bit.
  const Matrix bt = other.Transpose();
  simd::MatMulTransposedB(data_.data(), rows_, K, bt.data_.data(), N,
                          out.data_.data());
  return out;
}

Matrix Matrix::MatMulTransposedB(const Matrix& bt) const {
  assert(cols_ == bt.cols_);
  Matrix out(rows_, bt.rows_);
  // Each output entry is one dispatched dot over the shared k extent —
  // the identical kernel call MatVec makes for the matching row, which is
  // what keeps batched forwards bit-identical to the per-row path at any
  // dispatch choice.
  simd::MatMulTransposedB(data_.data(), rows_, cols_, bt.data_.data(),
                          bt.rows_, out.data_.data());
  return out;
}

Matrix Matrix::Transpose() const {
  Matrix out(cols_, rows_);
  for (size_t i = 0; i < rows_; ++i)
    for (size_t j = 0; j < cols_; ++j) out(j, i) = (*this)(i, j);
  return out;
}

Vec Matrix::MatVec(const Vec& x) const {
  assert(x.size() == cols_);
  Vec y(rows_, 0.0);
  simd::MatVec(data_.data(), rows_, cols_, x.data(), y.data());
  return y;
}

Vec Matrix::TransposeMatVec(const Vec& x) const {
  assert(x.size() == rows_);
  Vec y(cols_, 0.0);
  simd::TransposeMatVecAcc(data_.data(), rows_, cols_, x.data(), y.data());
  return y;
}

void Matrix::Axpy(double alpha, const Matrix& other) {
  assert(rows_ == other.rows_ && cols_ == other.cols_);
  simd::Axpy(alpha, other.data_.data(), data_.data(), data_.size());
}

void Matrix::Fill(double value) {
  std::fill(data_.begin(), data_.end(), value);
}

double Dot(const Vec& a, const Vec& b) {
  assert(a.size() == b.size());
  return simd::Dot(a.data(), b.data(), a.size());
}

void Axpy(double alpha, const Vec& x, Vec* y) {
  assert(x.size() == y->size());
  simd::Axpy(alpha, x.data(), y->data(), x.size());
}

void Scale(double alpha, Vec* x) {
  simd::Scale(alpha, x->data(), x->size());
}

double Norm2(const Vec& a) {
  return std::sqrt(simd::Norm2Sq(a.data(), a.size()));
}

double Sum(const Vec& a) {
  double acc = 0.0;
  for (double v : a) acc += v;
  return acc;
}

double Mean(const Vec& a) {
  return a.empty() ? 0.0 : Sum(a) / static_cast<double>(a.size());
}

double Variance(const Vec& a) {
  if (a.empty()) return 0.0;
  const double mu = Mean(a);
  double acc = 0.0;
  for (double v : a) acc += (v - mu) * (v - mu);
  return acc / static_cast<double>(a.size());
}

double CosineSimilarity(const Vec& a, const Vec& b) {
  const double na = Norm2(a), nb = Norm2(b);
  if (na == 0.0 || nb == 0.0) return 0.0;
  return Dot(a, b) / (na * nb);
}

void SoftmaxInPlace(double* v, size_t n) {
  if (n == 0) return;
  const double mx = *std::max_element(v, v + n);
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    v[i] = std::exp(v[i] - mx);
    total += v[i];
  }
  for (size_t i = 0; i < n; ++i) v[i] /= total;
}

double Sigmoid(double x) {
  if (x >= 0.0) {
    const double z = std::exp(-std::min(x, 500.0));
    return 1.0 / (1.0 + z);
  }
  const double z = std::exp(std::max(x, -500.0));
  return z / (1.0 + z);
}

Vec Sub(const Vec& a, const Vec& b) {
  assert(a.size() == b.size());
  Vec out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] - b[i];
  return out;
}

Vec Add(const Vec& a, const Vec& b) {
  assert(a.size() == b.size());
  Vec out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] + b[i];
  return out;
}

Vec Concat(const Vec& a, const Vec& b) {
  Vec out;
  out.reserve(a.size() + b.size());
  out.insert(out.end(), a.begin(), a.end());
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

}  // namespace retina
