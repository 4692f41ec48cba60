// Dense layer and activations with explicit forward/backward passes.
//
// The network architectures in this library are small and fixed (Figure 4),
// so backprop is written by hand per layer instead of via a tape: each
// layer's Backward takes the cached input and the upstream gradient,
// accumulates parameter gradients, and returns the downstream gradient.

#ifndef RETINA_NN_LAYERS_H_
#define RETINA_NN_LAYERS_H_

#include <string>
#include <vector>

#include "nn/param.h"
#include "nn/param_registry.h"

namespace retina::nn {

/// \brief Fully connected layer y = W x + b.
///
/// Construction leaves the weights zero; initialization happens through
/// the owning model's ParamRegistry (RegisterParams + InitGlorot).
class Dense {
 public:
  Dense(size_t in_dim, size_t out_dim) : W_(out_dim, in_dim), b_(1, out_dim) {}

  Vec Forward(const Vec& x) const;

  /// Raw-buffer batched forward over n row-major rows of in_dim entries;
  /// y holds n x out_dim. Computed as one blocked GEMM against W instead
  /// of n MatVecs; every output entry goes through the same dispatched
  /// dot kernel as Forward, so row i is bit-identical to Forward(row i)
  /// at any dispatch. The batched RETINA forward runs its dense layers
  /// here over arena rows.
  void ForwardBatchRaw(const double* x, size_t n, double* y) const;

  /// Accumulates dW, db from (cached input x, upstream dy); returns dx.
  Vec Backward(const Vec& x, const Vec& dy);

  /// Backward's input gradient alone: dx[0..in_dim) = W^T dy for dy of
  /// out_dim entries, with the same arithmetic; no parameter gradients.
  void InputGradRaw(const double* dy, double* dx) const;

  /// Batched weight and bias gradients of output row r: accumulates
  /// dW row r += sum_i dy[i][r] x[i] and db[r] += sum_i dy[i][r] over n
  /// cached input rows x (n x in_dim) and upstream rows dy (n x out_dim),
  /// skipping zero dy entries as Backward does. Rows are summed in chunks
  /// of `chunk` consecutive rows: each chunk's terms add up from zero in
  /// `partial` (in_dim scratch entries), then the chunk sums add into the
  /// gradient in chunk order. Distinct r touch disjoint gradient entries,
  /// so callers split r across threads and get the same bits at any
  /// thread count.
  void BackwardRow(size_t r, const double* x, const double* dy, size_t n,
                   size_t chunk, double* partial);

  /// Registers W (Glorot) and b (zero) under `scope`.
  void RegisterParams(ParamRegistry* registry, const std::string& scope) {
    registry->Register(scope + "/W", &W_, ParamInit::kGlorot);
    registry->Register(scope + "/b", &b_);
  }

  size_t in_dim() const { return W_.value.cols(); }
  size_t out_dim() const { return W_.value.rows(); }

 private:
  Param W_, b_;
};

/// ReLU forward.
Vec Relu(const Vec& x);

/// Layer normalization without learnable affine (the "normalized" input
/// stage of Figure 4(b)); eps guards zero-variance inputs.
Vec LayerNorm(const Vec& x, double eps = 1e-5);

/// In-place raw-buffer layer norm, bit-identical to LayerNorm (same
/// mean/variance accumulation order). Serving assembles feature rows
/// directly into arena storage and normalizes them here.
void LayerNormInPlace(double* x, size_t n, double eps = 1e-5);

/// \brief Weighted binary cross-entropy (Eq. 6):
/// L = -w*t*log(p) - (1-t)*log(1-p).
struct WeightedBce {
  /// Positive-class weight w.
  double pos_weight = 1.0;

  double Loss(double p, int target) const;

  /// dL/dz where p = sigmoid(z) (the numerically stable fused gradient).
  double GradLogit(double p, int target) const;
};

/// The paper's positive-weight schedule: w = lambda (log C - log C+),
/// with C total and C+ positive training samples (Section VI-D).
double PositiveClassWeight(size_t total, size_t positives, double lambda);

}  // namespace retina::nn

#endif  // RETINA_NN_LAYERS_H_
