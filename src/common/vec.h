// Dense vector / matrix math kernels shared by the ML and NN libraries.
//
// Vectors are plain std::vector<double>; Matrix is a row-major dense matrix.
// Kernels stay easy to audit: MatVec blocks four rows per pass and MatMul
// switches to a transposed-B register-blocked form for larger products, but
// both keep each output entry's accumulation order ascending in k, so
// results are identical to the naive loops.

#ifndef RETINA_COMMON_VEC_H_
#define RETINA_COMMON_VEC_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <new>
#include <span>
#include <vector>

namespace retina {

using Vec = std::vector<double>;

/// Allocator whose blocks start on a kAlign-byte boundary.
template <typename T, size_t kAlign>
struct AlignedAllocator {
  using value_type = T;
  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, kAlign>;
  };

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, kAlign>&) {}

  T* allocate(size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t(kAlign)));
  }
  void deallocate(T* p, size_t) {
    ::operator delete(p, std::align_val_t(kAlign));
  }

  friend bool operator==(const AlignedAllocator&, const AlignedAllocator&) {
    return true;
  }
};

/// Doubles starting on a cache line. Matrix storage and long-lived scratch
/// use it so that a row's offset from a cache line is the same in every
/// run: malloc places a block on any 16-byte boundary, and where it put a
/// weight matrix decided whether the SIMD kernels' 32-byte loads split
/// cache lines, which moved a dense layer's speed by about 30% from one
/// process to the next.
using AlignedVec = std::vector<double, AlignedAllocator<double, 64>>;

/// \brief Row-major dense matrix of doubles.
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(size_t rows, size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double& operator()(size_t r, size_t c) {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double operator()(size_t r, size_t c) const {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  /// Pointer to the start of row r.
  double* Row(size_t r) {
    assert(r < rows_);
    return data_.data() + r * cols_;
  }
  const double* Row(size_t r) const {
    assert(r < rows_);
    return data_.data() + r * cols_;
  }

  /// Copies row r into a Vec.
  Vec RowVec(size_t r) const {
    assert(r < rows_);
    Vec out(cols_);
    std::copy(Row(r), Row(r) + cols_, out.begin());
    return out;
  }

  /// Overwrites row r with v (sizes must match).
  void SetRow(size_t r, const Vec& v) {
    assert(r < rows_ && v.size() == cols_);
    std::copy(v.begin(), v.end(), Row(r));
  }

  /// Overwrites row r from a raw span of cols() entries.
  void SetRow(size_t r, std::span<const double> v) {
    assert(r < rows_ && v.size() == cols_);
    std::copy(v.begin(), v.end(), Row(r));
  }

  AlignedVec& data() { return data_; }
  const AlignedVec& data() const { return data_; }

  /// C = this * other. Dimensions must agree.
  Matrix MatMul(const Matrix& other) const;

  /// C = this * bt^T without materializing the transpose: bt is the
  /// right-hand operand stored row-major in its transposed form, so
  /// C(i, j) = dot(row i of this, row j of bt). This is the natural layout
  /// for batched layer forwards (bt = the weight matrix W, rows = output
  /// units): each output entry accumulates in ascending k exactly like
  /// MatVec, so a batched forward is bit-identical to the row-at-a-time
  /// path.
  Matrix MatMulTransposedB(const Matrix& bt) const;

  /// C = this^T as a new matrix.
  Matrix Transpose() const;

  /// y = this * x (matrix-vector product).
  Vec MatVec(const Vec& x) const;

  /// y = this^T * x without materializing the transpose.
  Vec TransposeMatVec(const Vec& x) const;

  /// this += alpha * other (element-wise). Dimensions must agree.
  void Axpy(double alpha, const Matrix& other);

  /// Fills every element with `value`.
  void Fill(double value);

 private:
  size_t rows_, cols_;
  AlignedVec data_;
};

/// Dot product. Sizes must match.
double Dot(const Vec& a, const Vec& b);

/// y += alpha * x. Sizes must match.
void Axpy(double alpha, const Vec& x, Vec* y);

/// In-place scale: x *= alpha.
void Scale(double alpha, Vec* x);

/// Euclidean norm.
double Norm2(const Vec& a);

/// Sum of elements.
double Sum(const Vec& a);

/// Arithmetic mean (0 for empty).
double Mean(const Vec& a);

/// Population variance: mean((a_i - mean(a))^2) over all elements.
/// Returns 0 for vectors with fewer than two elements (empty or singleton).
double Variance(const Vec& a);

/// Cosine similarity; 0 when either vector is all-zero.
double CosineSimilarity(const Vec& a, const Vec& b);

/// Numerically stable in-place softmax over n entries.
void SoftmaxInPlace(double* v, size_t n);

/// Logistic sigmoid with clamping to avoid overflow.
double Sigmoid(double x);

/// Element-wise a - b.
Vec Sub(const Vec& a, const Vec& b);

/// Element-wise a + b.
Vec Add(const Vec& a, const Vec& b);

/// Concatenates b onto a copy of a.
Vec Concat(const Vec& a, const Vec& b);

}  // namespace retina

#endif  // RETINA_COMMON_VEC_H_
