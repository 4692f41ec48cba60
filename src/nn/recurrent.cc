#include "nn/recurrent.h"

#include <cassert>
#include <cmath>
#include <utility>

namespace retina::nn {

const char* RecurrentKindName(RecurrentKind kind) {
  switch (kind) {
    case RecurrentKind::kGru:
      return "GRU";
    case RecurrentKind::kLstm:
      return "LSTM";
    case RecurrentKind::kSimpleRnn:
      return "SimpleRNN";
  }
  return "?";
}

namespace {

// Gate pre-activation W x + U h + b.
Vec AffineGate(const Param& W, const Param& U, const Param& b, const Vec& x,
               const Vec& h) {
  Vec out = W.value.MatVec(x);
  const Vec uh = U.value.MatVec(h);
  for (size_t i = 0; i < out.size(); ++i) out[i] += uh[i] + b.value(0, i);
  return out;
}

// AffineGate's backward: dW += g x^T, dU += g h^T, db += g; dx += W^T g;
// dh += U^T g.
void AccumulateAffine(Param* W, Param* U, Param* b, const Vec& g,
                      const Vec& x, const Vec& h, Vec* dx, Vec* dh) {
  for (size_t i = 0; i < g.size(); ++i) {
    if (g[i] == 0.0) continue;
    double* wrow = W->grad.Row(i);
    for (size_t j = 0; j < x.size(); ++j) wrow[j] += g[i] * x[j];
    double* urow = U->grad.Row(i);
    for (size_t j = 0; j < h.size(); ++j) urow[j] += g[i] * h[j];
    b->grad(0, i) += g[i];
  }
  const Vec dxx = W->value.TransposeMatVec(g);
  for (size_t j = 0; j < dx->size(); ++j) (*dx)[j] += dxx[j];
  const Vec dhh = U->value.TransposeMatVec(g);
  for (size_t j = 0; j < dh->size(); ++j) (*dh)[j] += dhh[j];
}

}  // namespace

// ------------------------------------------------------------ SimpleRnn --

SimpleRnnCell::SimpleRnnCell(size_t in_dim, size_t hidden_dim)
    : in_dim_(in_dim),
      hidden_dim_(hidden_dim),
      W_(hidden_dim, in_dim),
      U_(hidden_dim, hidden_dim),
      b_(1, hidden_dim) {}

Vec SimpleRnnCell::Forward(const Vec& x, const Vec& state,
                           RecCache* cache) const {
  assert(x.size() == in_dim_ && state.size() == hidden_dim_);
  Vec h = W_.value.MatVec(x);
  const Vec uh = U_.value.MatVec(state);
  for (size_t i = 0; i < hidden_dim_; ++i) {
    h[i] = std::tanh(h[i] + uh[i] + b_.value(0, i));
  }
  if (cache != nullptr) {
    cache->x = x;
    cache->state_prev = state;
    cache->aux = {h};
  }
  return h;
}

void SimpleRnnCell::Backward(const RecCache& cache, const Vec& dstate,
                             Vec* dx, Vec* dstate_prev) {
  const Vec& h = cache.aux[0];
  dx->assign(in_dim_, 0.0);
  dstate_prev->assign(hidden_dim_, 0.0);
  Vec da(hidden_dim_);
  for (size_t i = 0; i < hidden_dim_; ++i) {
    da[i] = dstate[i] * (1.0 - h[i] * h[i]);
  }
  AccumulateAffine(&W_, &U_, &b_, da, cache.x, cache.state_prev, dx,
                   dstate_prev);
}

// ----------------------------------------------------------------- LSTM --

LstmCell::LstmCell(size_t in_dim, size_t hidden_dim)
    : in_dim_(in_dim),
      hidden_dim_(hidden_dim),
      Wi_(hidden_dim, in_dim),
      Ui_(hidden_dim, hidden_dim),
      bi_(1, hidden_dim),
      Wf_(hidden_dim, in_dim),
      Uf_(hidden_dim, hidden_dim),
      bf_(1, hidden_dim),
      Wo_(hidden_dim, in_dim),
      Uo_(hidden_dim, hidden_dim),
      bo_(1, hidden_dim),
      Wc_(hidden_dim, in_dim),
      Uc_(hidden_dim, hidden_dim),
      bc_(1, hidden_dim) {
  // Forget-gate bias init at 1 (standard trick for gradient flow); the
  // registry's InitGlorot leaves kKeep biases untouched, so this survives
  // registration + init.
  for (size_t i = 0; i < hidden_dim; ++i) bf_.value(0, i) = 1.0;
}

Vec LstmCell::Forward(const Vec& x, const Vec& state,
                      RecCache* cache) const {
  assert(x.size() == in_dim_ && state.size() == 2 * hidden_dim_);
  const Vec h_prev(state.begin(), state.begin() + hidden_dim_);
  const Vec c_prev(state.begin() + hidden_dim_, state.end());

  Vec i_gate = AffineGate(Wi_, Ui_, bi_, x, h_prev);
  Vec f_gate = AffineGate(Wf_, Uf_, bf_, x, h_prev);
  Vec o_gate = AffineGate(Wo_, Uo_, bo_, x, h_prev);
  Vec g_gate = AffineGate(Wc_, Uc_, bc_, x, h_prev);
  for (size_t i = 0; i < hidden_dim_; ++i) {
    i_gate[i] = Sigmoid(i_gate[i]);
    f_gate[i] = Sigmoid(f_gate[i]);
    o_gate[i] = Sigmoid(o_gate[i]);
    g_gate[i] = std::tanh(g_gate[i]);
  }
  Vec c(hidden_dim_), h(hidden_dim_);
  for (size_t i = 0; i < hidden_dim_; ++i) {
    c[i] = f_gate[i] * c_prev[i] + i_gate[i] * g_gate[i];
    h[i] = o_gate[i] * std::tanh(c[i]);
  }
  if (cache != nullptr) {
    cache->x = x;
    cache->state_prev = state;
    cache->aux = {i_gate, f_gate, o_gate, g_gate, c};
  }
  Vec out = h;
  out.insert(out.end(), c.begin(), c.end());
  return out;
}

void LstmCell::Backward(const RecCache& cache, const Vec& dstate, Vec* dx,
                        Vec* dstate_prev) {
  const size_t H = hidden_dim_;
  const Vec& i_gate = cache.aux[0];
  const Vec& f_gate = cache.aux[1];
  const Vec& o_gate = cache.aux[2];
  const Vec& g_gate = cache.aux[3];
  const Vec& c = cache.aux[4];
  const Vec h_prev(cache.state_prev.begin(), cache.state_prev.begin() + H);
  const Vec c_prev(cache.state_prev.begin() + H, cache.state_prev.end());

  dx->assign(in_dim_, 0.0);
  dstate_prev->assign(2 * H, 0.0);

  Vec da_i(H), da_f(H), da_o(H), da_g(H);
  for (size_t i = 0; i < H; ++i) {
    const double dh = dstate[i];
    const double tanh_c = std::tanh(c[i]);
    // dc from the h path plus the direct dc from the next step.
    const double dc = dh * o_gate[i] * (1.0 - tanh_c * tanh_c) +
                      dstate[H + i];
    const double do_ = dh * tanh_c;
    const double di = dc * g_gate[i];
    const double df = dc * c_prev[i];
    const double dg = dc * i_gate[i];
    // dc_prev carried to the previous step.
    (*dstate_prev)[H + i] = dc * f_gate[i];
    da_i[i] = di * i_gate[i] * (1.0 - i_gate[i]);
    da_f[i] = df * f_gate[i] * (1.0 - f_gate[i]);
    da_o[i] = do_ * o_gate[i] * (1.0 - o_gate[i]);
    da_g[i] = dg * (1.0 - g_gate[i] * g_gate[i]);
  }
  // dh_prev accumulates into the first H entries of dstate_prev.
  Vec dh_prev(H, 0.0);
  AccumulateAffine(&Wi_, &Ui_, &bi_, da_i, cache.x, h_prev, dx, &dh_prev);
  AccumulateAffine(&Wf_, &Uf_, &bf_, da_f, cache.x, h_prev, dx, &dh_prev);
  AccumulateAffine(&Wo_, &Uo_, &bo_, da_o, cache.x, h_prev, dx, &dh_prev);
  AccumulateAffine(&Wc_, &Uc_, &bc_, da_g, cache.x, h_prev, dx, &dh_prev);
  for (size_t i = 0; i < H; ++i) (*dstate_prev)[i] += dh_prev[i];
}

void LstmCell::RegisterParams(ParamRegistry* registry,
                              const std::string& scope) {
  registry->Register(scope + "/Wi", &Wi_, ParamInit::kGlorot);
  registry->Register(scope + "/Ui", &Ui_, ParamInit::kGlorot);
  registry->Register(scope + "/bi", &bi_);
  registry->Register(scope + "/Wf", &Wf_, ParamInit::kGlorot);
  registry->Register(scope + "/Uf", &Uf_, ParamInit::kGlorot);
  registry->Register(scope + "/bf", &bf_);
  registry->Register(scope + "/Wo", &Wo_, ParamInit::kGlorot);
  registry->Register(scope + "/Uo", &Uo_, ParamInit::kGlorot);
  registry->Register(scope + "/bo", &bo_);
  registry->Register(scope + "/Wc", &Wc_, ParamInit::kGlorot);
  registry->Register(scope + "/Uc", &Uc_, ParamInit::kGlorot);
  registry->Register(scope + "/bc", &bc_);
}

// ------------------------------------------------------------------ GRU --

GruCell::GruCell(size_t in_dim, size_t hidden_dim)
    : in_dim_(in_dim),
      hidden_dim_(hidden_dim),
      Wz_(hidden_dim, in_dim),
      Uz_(hidden_dim, hidden_dim),
      bz_(1, hidden_dim),
      Wr_(hidden_dim, in_dim),
      Ur_(hidden_dim, hidden_dim),
      br_(1, hidden_dim),
      Wh_(hidden_dim, in_dim),
      Uh_(hidden_dim, hidden_dim),
      bh_(1, hidden_dim) {}

Vec GruCell::Forward(const Vec& x, const Vec& state, RecCache* cache) const {
  assert(x.size() == in_dim_ && state.size() == hidden_dim_);
  Vec z = AffineGate(Wz_, Uz_, bz_, x, state);
  Vec r = AffineGate(Wr_, Ur_, br_, x, state);
  for (double& v : z) v = Sigmoid(v);
  for (double& v : r) v = Sigmoid(v);
  Vec rh(hidden_dim_);
  for (size_t i = 0; i < hidden_dim_; ++i) rh[i] = r[i] * state[i];
  Vec hhat = AffineGate(Wh_, Uh_, bh_, x, rh);
  for (double& v : hhat) v = std::tanh(v);
  Vec h(hidden_dim_);
  for (size_t i = 0; i < hidden_dim_; ++i) {
    h[i] = (1.0 - z[i]) * state[i] + z[i] * hhat[i];
  }
  if (cache != nullptr) {
    cache->x = x;
    cache->state_prev = state;
    cache->aux = {std::move(z), std::move(r), std::move(hhat)};
  }
  return h;
}

void GruCell::Backward(const RecCache& cache, const Vec& dstate, Vec* dx,
                       Vec* dstate_prev) {
  const size_t H = hidden_dim_;
  const Vec& h_prev = cache.state_prev;
  const Vec& z = cache.aux[0];
  const Vec& r = cache.aux[1];
  const Vec& hhat = cache.aux[2];
  dx->assign(in_dim_, 0.0);
  dstate_prev->assign(H, 0.0);

  Vec dz(H), dhhat(H);
  for (size_t i = 0; i < H; ++i) {
    // h = (1-z) h_prev + z hhat
    (*dstate_prev)[i] += dstate[i] * (1.0 - z[i]);
    dhhat[i] = dstate[i] * z[i];
    dz[i] = dstate[i] * (hhat[i] - h_prev[i]);
  }

  // hhat = tanh(a_h), a_h = Wh x + Uh (r*h_prev) + bh
  Vec da_h(H);
  for (size_t i = 0; i < H; ++i) {
    da_h[i] = dhhat[i] * (1.0 - hhat[i] * hhat[i]);
  }
  Vec rh(H);
  for (size_t i = 0; i < H; ++i) rh[i] = r[i] * h_prev[i];
  Vec drh(H, 0.0);
  AccumulateAffine(&Wh_, &Uh_, &bh_, da_h, cache.x, rh, dx, &drh);
  Vec dr(H);
  for (size_t i = 0; i < H; ++i) {
    dr[i] = drh[i] * h_prev[i];
    (*dstate_prev)[i] += drh[i] * r[i];
  }

  // Gates: sigmoid derivative.
  Vec da_z(H), da_r(H);
  for (size_t i = 0; i < H; ++i) {
    da_z[i] = dz[i] * z[i] * (1.0 - z[i]);
    da_r[i] = dr[i] * r[i] * (1.0 - r[i]);
  }
  AccumulateAffine(&Wz_, &Uz_, &bz_, da_z, cache.x, h_prev, dx, dstate_prev);
  AccumulateAffine(&Wr_, &Ur_, &br_, da_r, cache.x, h_prev, dx, dstate_prev);
}

void GruCell::RegisterParams(ParamRegistry* registry,
                             const std::string& scope) {
  registry->Register(scope + "/Wz", &Wz_, ParamInit::kGlorot);
  registry->Register(scope + "/Uz", &Uz_, ParamInit::kGlorot);
  registry->Register(scope + "/bz", &bz_);
  registry->Register(scope + "/Wr", &Wr_, ParamInit::kGlorot);
  registry->Register(scope + "/Ur", &Ur_, ParamInit::kGlorot);
  registry->Register(scope + "/br", &br_);
  registry->Register(scope + "/Wh", &Wh_, ParamInit::kGlorot);
  registry->Register(scope + "/Uh", &Uh_, ParamInit::kGlorot);
  registry->Register(scope + "/bh", &bh_);
}

std::unique_ptr<RecurrentCell> MakeRecurrentCell(RecurrentKind kind,
                                                 size_t in_dim,
                                                 size_t hidden_dim) {
  switch (kind) {
    case RecurrentKind::kGru:
      return std::make_unique<GruCell>(in_dim, hidden_dim);
    case RecurrentKind::kLstm:
      return std::make_unique<LstmCell>(in_dim, hidden_dim);
    case RecurrentKind::kSimpleRnn:
      return std::make_unique<SimpleRnnCell>(in_dim, hidden_dim);
  }
  return nullptr;
}

}  // namespace retina::nn
