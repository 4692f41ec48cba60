#include "nn/attention.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/simd.h"

namespace retina::nn {

ExogenousAttention::ExogenousAttention(size_t tweet_dim, size_t news_dim,
                                       size_t hdim)
    : hdim_(hdim),
      Wq_(tweet_dim, hdim),
      Wk_(news_dim, hdim),
      Wv_(news_dim, hdim) {}

void ExogenousAttention::ForwardCore(const Vec& tweet, const Matrix& news,
                                     double* q, double* k, double* v,
                                     double* weights, double* out) const {
  const size_t seq = news.rows();
  // Q = X^T (.) Wq : (hdim), skipping zero tweet entries.
  for (size_t j = 0; j < tweet.size(); ++j) {
    if (tweet[j] == 0.0) continue;
    simd::Axpy(tweet[j], Wq_.value.Row(j), q, hdim_);
  }
  // K, V = X^N (.) Wk, X^N (.) Wv : (seq x hdim).
  for (size_t i = 0; i < seq; ++i) {
    const double* nrow = news.Row(i);
    double* krow = k + i * hdim_;
    double* vrow = v + i * hdim_;
    for (size_t j = 0; j < news.cols(); ++j) {
      const double x = nrow[j];
      if (x == 0.0) continue;
      simd::Axpy(x, Wk_.value.Row(j), krow, hdim_);
      simd::Axpy(x, Wv_.value.Row(j), vrow, hdim_);
    }
  }

  // A = softmax(Q.K / sqrt(hdim)).
  const double scale = 1.0 / std::sqrt(static_cast<double>(hdim_));
  for (size_t i = 0; i < seq; ++i) {
    weights[i] = simd::Dot(q, k + i * hdim_, hdim_) * scale;
  }
  SoftmaxInPlace(weights, seq);

  // X^{T,N} = sum_i A_i V_i.
  for (size_t i = 0; i < seq; ++i) {
    simd::Axpy(weights[i], v + i * hdim_, out, hdim_);
  }
}

Vec ExogenousAttention::Forward(const Vec& tweet, const Matrix& news,
                                AttentionCache* cache) const {
  assert(tweet.size() == Wq_.value.rows());
  const size_t seq = news.rows();
  Vec out(hdim_, 0.0);
  if (seq == 0) {
    if (cache != nullptr) {
      cache->tweet = tweet;
      cache->news = &news;
      cache->weights.clear();
    }
    return out;
  }
  assert(news.cols() == Wk_.value.rows());

  Vec q(hdim_, 0.0);
  Matrix k(seq, hdim_), v(seq, hdim_);
  Vec weights(seq);
  ForwardCore(tweet, news, q.data(), k.Row(0), v.Row(0), weights.data(),
              out.data());

  if (cache != nullptr) {
    cache->tweet = tweet;
    cache->news = &news;
    cache->q = std::move(q);
    cache->k = std::move(k);
    cache->v = std::move(v);
    cache->weights = std::move(weights);
  }
  return out;
}

void ExogenousAttention::ForwardInto(const Vec& tweet, const Matrix& news,
                                     ScratchArena* arena, double* out) const {
  assert(tweet.size() == Wq_.value.rows());
  const size_t seq = news.rows();
  std::fill(out, out + hdim_, 0.0);
  if (seq == 0) return;
  assert(news.cols() == Wk_.value.rows());

  double* q = arena->AllocDoublesZeroed(hdim_);
  double* k = arena->AllocDoublesZeroed(seq * hdim_);
  double* v = arena->AllocDoublesZeroed(seq * hdim_);
  double* weights = arena->AllocDoubles(seq);
  ForwardCore(tweet, news, q, k, v, weights, out);
}

void ExogenousAttention::Backward(const AttentionCache& cache,
                                  const Vec& dout) {
  const size_t seq = cache.weights.size();
  if (seq == 0) return;
  const Matrix& news = *cache.news;
  const double scale = 1.0 / std::sqrt(static_cast<double>(hdim_));

  // dV_i = a_i * dout; da_i = dout . V_i.
  Vec da(seq, 0.0);
  Matrix dv(seq, hdim_);
  for (size_t i = 0; i < seq; ++i) {
    const double* vrow = cache.v.Row(i);
    double* dvrow = dv.Row(i);
    double acc = 0.0;
    for (size_t h = 0; h < hdim_; ++h) {
      acc += dout[h] * vrow[h];
      dvrow[h] = cache.weights[i] * dout[h];
    }
    da[i] = acc;
  }

  // Softmax backward: ds_i = a_i (da_i - sum_j a_j da_j).
  double mix = 0.0;
  for (size_t i = 0; i < seq; ++i) mix += cache.weights[i] * da[i];
  Vec ds(seq);
  for (size_t i = 0; i < seq; ++i) {
    ds[i] = cache.weights[i] * (da[i] - mix) * scale;
  }

  // dq = sum_i ds_i K_i;  dK_i = ds_i q.
  Vec dq(hdim_, 0.0);
  Matrix dk(seq, hdim_);
  for (size_t i = 0; i < seq; ++i) {
    const double* krow = cache.k.Row(i);
    double* dkrow = dk.Row(i);
    for (size_t h = 0; h < hdim_; ++h) {
      dq[h] += ds[i] * krow[h];
      dkrow[h] = ds[i] * cache.q[h];
    }
  }

  // Parameter gradients: dWq += tweet (x) dq; dWk += news^T dk;
  // dWv += news^T dv.
  for (size_t j = 0; j < cache.tweet.size(); ++j) {
    const double x = cache.tweet[j];
    if (x == 0.0) continue;
    double* row = Wq_.grad.Row(j);
    for (size_t h = 0; h < hdim_; ++h) row[h] += x * dq[h];
  }
  for (size_t i = 0; i < seq; ++i) {
    const double* nrow = news.Row(i);
    const double* dkrow = dk.Row(i);
    const double* dvrow = dv.Row(i);
    for (size_t j = 0; j < news.cols(); ++j) {
      const double x = nrow[j];
      if (x == 0.0) continue;
      double* wkg = Wk_.grad.Row(j);
      double* wvg = Wv_.grad.Row(j);
      for (size_t h = 0; h < hdim_; ++h) {
        wkg[h] += x * dkrow[h];
        wvg[h] += x * dvrow[h];
      }
    }
  }
}

}  // namespace retina::nn
