// Exogenous scaled dot-product attention (Eqs. 3-5, Figure 4(a)).
//
// The Query projection is applied to the tweet feature X^T; Key and Value
// projections to each element of the news feature sequence X^N. The
// attention weights A = softmax(Q.K / sqrt(hdim)) aggregate the Value
// vectors into the attended exogenous representation X^{T,N}.

#ifndef RETINA_NN_ATTENTION_H_
#define RETINA_NN_ATTENTION_H_

#include <string>
#include <vector>

#include "common/arena.h"
#include "nn/param.h"
#include "nn/param_registry.h"

namespace retina::nn {

/// Cache for ExogenousAttention::Backward. The news matrix is held by
/// pointer; the caller must keep it alive between Forward and Backward.
struct AttentionCache {
  Vec tweet;
  const Matrix* news = nullptr;
  Vec q;
  Matrix k, v;   // seq_len x hdim
  Vec weights;   // softmax attention weights (seq_len)
};

/// \brief Single-head scaled dot-product attention over a news sequence.
class ExogenousAttention {
 public:
  /// \param tweet_dim Dimensionality of the tweet feature X^T.
  /// \param news_dim Dimensionality of each news feature X^N_i.
  /// \param hdim Attention width (paper: 64).
  ExogenousAttention(size_t tweet_dim, size_t news_dim, size_t hdim);

  /// Computes X^{T,N} (hdim). `news` has one row per headline; an empty
  /// sequence yields the zero vector.
  Vec Forward(const Vec& tweet, const Matrix& news,
              AttentionCache* cache) const;

  /// Arena-backed Forward for the batched RETINA forward, which runs it
  /// once per tweet group: all temporaries (q, K, V, weights) come from
  /// `arena` and `out` receives the hdim() attended vector. Bit-identical
  /// to Forward — both run the same kernel core.
  void ForwardInto(const Vec& tweet, const Matrix& news,
                   ScratchArena* arena, double* out) const;

  /// Accumulates parameter gradients from upstream `dout`; input gradients
  /// are not propagated (features are fixed).
  void Backward(const AttentionCache& cache, const Vec& dout);

  /// Registers Wq, Wk, Wv (all Glorot) under `scope`.
  void RegisterParams(ParamRegistry* registry, const std::string& scope) {
    registry->Register(scope + "/Wq", &Wq_, ParamInit::kGlorot);
    registry->Register(scope + "/Wk", &Wk_, ParamInit::kGlorot);
    registry->Register(scope + "/Wv", &Wv_, ParamInit::kGlorot);
  }

  /// Dimensionality of the tweet-side query input.
  size_t tweet_dim() const { return Wq_.value.rows(); }

  /// Attention width: the dimensionality of the attended output.
  size_t hdim() const { return hdim_; }

 private:
  // Shared kernel core over caller-provided buffers: q and out hold hdim
  // entries, k/v hold seq x hdim rows, weights holds seq entries; q, k, v
  // and out must arrive zeroed. Forward and ForwardInto both funnel
  // through this, so they are bit-identical at any kernel dispatch.
  void ForwardCore(const Vec& tweet, const Matrix& news, double* q,
                   double* k, double* v, double* weights, double* out) const;

  size_t hdim_;
  Param Wq_;  // tweet_dim x hdim
  Param Wk_;  // news_dim x hdim
  Param Wv_;  // news_dim x hdim
};

}  // namespace retina::nn

#endif  // RETINA_NN_ATTENTION_H_
