// Tests for src/nn — including numerical gradient checks for Dense, the
// recurrent cells (GRU, LSTM, simple RNN) and the exogenous attention
// block, which are the load-bearing pieces of RETINA's training loop.

#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "nn/attention.h"
#include "nn/layers.h"
#include "nn/param_registry.h"
#include "nn/recurrent.h"
#include "nn/optimizer.h"

namespace retina::nn {
namespace {

constexpr double kEps = 1e-5;
constexpr double kTol = 1e-6;

// Registers `layer` into a fresh registry and Glorot-initializes it — the
// draw order matches what the old Rng-taking constructors performed.
template <typename LayerT>
ParamRegistry InitLayer(LayerT* layer, Rng* rng) {
  ParamRegistry reg;
  layer->RegisterParams(&reg, "layer");
  reg.InitGlorot(rng);
  return reg;
}

// Central-difference derivative of `f` w.r.t. element (r, c) of `param`.
double NumericalGrad(Param* param, size_t r, size_t c,
                     const std::function<double()>& f) {
  const double orig = param->value(r, c);
  param->value(r, c) = orig + kEps;
  const double up = f();
  param->value(r, c) = orig - kEps;
  const double down = f();
  param->value(r, c) = orig;
  return (up - down) / (2.0 * kEps);
}

// ---------------------------------------------------------------- Dense --

TEST(DenseTest, ForwardMatchesManual) {
  Rng rng(1);
  Dense layer(2, 2);
  // Overwrite weights deterministically via the registry.
  ParamRegistry reg = InitLayer(&layer, &rng);
  auto params = reg.params();
  params[0]->value(0, 0) = 1.0;
  params[0]->value(0, 1) = 2.0;
  params[0]->value(1, 0) = -1.0;
  params[0]->value(1, 1) = 0.5;
  params[1]->value(0, 0) = 0.1;
  params[1]->value(0, 1) = -0.2;
  const Vec y = layer.Forward({3.0, 4.0});
  EXPECT_NEAR(y[0], 1.0 * 3 + 2.0 * 4 + 0.1, 1e-12);
  EXPECT_NEAR(y[1], -1.0 * 3 + 0.5 * 4 - 0.2, 1e-12);
}

TEST(DenseTest, GradientCheck) {
  Rng rng(2);
  Dense layer(4, 3);
  ParamRegistry reg = InitLayer(&layer, &rng);
  const Vec x = {0.3, -0.7, 1.2, 0.05};
  const Vec dy = {1.0, -0.5, 0.25};  // upstream gradient

  // Loss = dy . layer(x); its gradient w.r.t. params is what Backward
  // accumulates.
  auto loss = [&]() { return Dot(dy, layer.Forward(x)); };

  reg.ZeroGrads();
  const Vec dx = layer.Backward(x, dy);

  for (Param* p : reg.params()) {
    for (size_t r = 0; r < p->value.rows(); ++r) {
      for (size_t c = 0; c < p->value.cols(); ++c) {
        EXPECT_NEAR(p->grad(r, c), NumericalGrad(p, r, c, loss), kTol);
      }
    }
  }
  // dx check via perturbing the input.
  for (size_t j = 0; j < x.size(); ++j) {
    Vec xp = x, xm = x;
    xp[j] += kEps;
    xm[j] -= kEps;
    const double num =
        (Dot(dy, layer.Forward(xp)) - Dot(dy, layer.Forward(xm))) /
        (2.0 * kEps);
    EXPECT_NEAR(dx[j], num, kTol);
  }
}

TEST(DenseTest, BackwardRowMatchesPerRowBackward) {
  // Row-owned gradients over a batch (chunks of 2 rows) equal per-row
  // Backward calls up to the summation grouping, skipping a zero dy entry
  // the same way; InputGradRaw is Backward's dx.
  Rng rng(4);
  const size_t n = 5, in = 6, out = 3;
  Dense per_row(in, out), by_row(in, out);
  const ParamRegistry want = InitLayer(&per_row, &rng);
  ParamRegistry got;
  by_row.RegisterParams(&got, "layer");
  Matrix x(n, in), dy(n, out);
  for (double& v : x.data()) v = rng.Normal();
  for (double& v : dy.data()) v = rng.Normal();
  dy(1, 2) = 0.0;
  for (size_t i = 0; i < n; ++i) per_row.Backward(x.RowVec(i), dy.RowVec(i));
  Vec partial(in);
  for (size_t r = 0; r < out; ++r) {
    by_row.BackwardRow(r, x.Row(0), dy.Row(0), n, 2, partial.data());
  }
  for (const char* name : {"layer/W", "layer/b"}) {
    const Matrix& a = want.Find(name)->grad;
    const Matrix& b = got.Find(name)->grad;
    for (size_t k = 0; k < a.size(); ++k) {
      EXPECT_NEAR(b.data()[k], a.data()[k], 1e-12) << name << " " << k;
    }
  }
  Vec dx(in);
  per_row.InputGradRaw(dy.Row(0), dx.data());
  EXPECT_EQ(dx, per_row.Backward(x.RowVec(0), dy.RowVec(0)));
}

// ----------------------------------------------------------- Activations --

TEST(ActivationTest, Relu) {
  EXPECT_EQ(Relu({-1.0, 0.0, 2.0}), (Vec{0.0, 0.0, 2.0}));
}

TEST(LayerNormTest, NormalizesToZeroMeanUnitVar) {
  const Vec y = LayerNorm({1.0, 2.0, 3.0, 4.0});
  EXPECT_NEAR(Mean(y), 0.0, 1e-9);
  EXPECT_NEAR(Variance(y), 1.0, 1e-3);
}

TEST(LayerNormTest, ConstantInputSafe) {
  const Vec y = LayerNorm({5.0, 5.0, 5.0});
  for (double v : y) EXPECT_NEAR(v, 0.0, 1e-9);
}

// ------------------------------------------------------------------ Loss --

TEST(WeightedBceTest, LossValues) {
  WeightedBce loss;
  loss.pos_weight = 2.0;
  EXPECT_NEAR(loss.Loss(0.5, 1), 2.0 * std::log(2.0), 1e-9);
  EXPECT_NEAR(loss.Loss(0.5, 0), std::log(2.0), 1e-9);
  EXPECT_LT(loss.Loss(0.99, 1), loss.Loss(0.5, 1));
}

TEST(WeightedBceTest, GradLogitMatchesNumerical) {
  WeightedBce loss;
  loss.pos_weight = 3.0;
  for (double z : {-2.0, 0.0, 1.5}) {
    for (int t : {0, 1}) {
      const double analytic = loss.GradLogit(Sigmoid(z), t);
      const double num = (loss.Loss(Sigmoid(z + kEps), t) -
                          loss.Loss(Sigmoid(z - kEps), t)) /
                         (2.0 * kEps);
      EXPECT_NEAR(analytic, num, 1e-5) << "z=" << z << " t=" << t;
    }
  }
}

TEST(WeightedBceTest, PositiveClassWeightFormula) {
  // w = lambda (log C - log C+)
  EXPECT_NEAR(PositiveClassWeight(1000, 100, 2.0), 2.0 * std::log(10.0),
              1e-9);
  EXPECT_DOUBLE_EQ(PositiveClassWeight(100, 0, 2.0), 1.0);
  EXPECT_DOUBLE_EQ(PositiveClassWeight(0, 0, 2.0), 1.0);
}

// ------------------------------------------------------------------- GRU --

TEST(GruTest, OutputInTanhRange) {
  Rng rng(3);
  GruCell gru(4, 8);
  InitLayer(&gru, &rng);
  const Vec h = gru.Forward({0.5, -0.5, 1.0, 0.0}, Vec(8, 0.0), nullptr);
  for (double v : h) {
    EXPECT_GE(v, -1.0);
    EXPECT_LE(v, 1.0);
  }
}

// -------------------------------------------------------------- Attention --

TEST(AttentionTest, EmptyNewsYieldsZeroVector) {
  Rng rng(6);
  ExogenousAttention att(5, 5, 8);
  InitLayer(&att, &rng);
  Matrix news(0, 5);
  AttentionCache cache;
  const Vec out = att.Forward({1, 2, 3, 4, 5}, news, &cache);
  for (double v : out) EXPECT_DOUBLE_EQ(v, 0.0);
  // Backward on an empty cache must be a no-op.
  att.Backward(cache, Vec(8, 1.0));
}

TEST(AttentionTest, OutputIsConvexCombinationOfValues) {
  Rng rng(7);
  ExogenousAttention att(3, 3, 4);
  InitLayer(&att, &rng);
  Matrix news(2, 3);
  news.SetRow(0, {1.0, 0.0, 0.0});
  news.SetRow(1, {0.0, 1.0, 0.0});
  AttentionCache cache;
  (void)att.Forward({0.5, 0.5, 0.5}, news, &cache);
  ASSERT_EQ(cache.weights.size(), 2u);
  EXPECT_NEAR(cache.weights[0] + cache.weights[1], 1.0, 1e-12);
  EXPECT_GT(cache.weights[0], 0.0);
  EXPECT_GT(cache.weights[1], 0.0);
}

TEST(AttentionTest, GradientCheck) {
  Rng rng(8);
  ExogenousAttention att(3, 4, 5);
  ParamRegistry reg = InitLayer(&att, &rng);
  const Vec tweet = {0.6, -0.2, 0.9};
  Matrix news(3, 4);
  news.SetRow(0, {0.1, 0.5, -0.3, 0.8});
  news.SetRow(1, {-0.6, 0.2, 0.4, -0.1});
  news.SetRow(2, {0.3, -0.7, 0.05, 0.2});
  const Vec dy = {1.0, -0.5, 0.3, 0.7, -0.2};

  auto loss = [&]() { return Dot(dy, att.Forward(tweet, news, nullptr)); };

  AttentionCache cache;
  (void)att.Forward(tweet, news, &cache);
  reg.ZeroGrads();
  att.Backward(cache, dy);

  for (Param* p : reg.params()) {
    for (size_t r = 0; r < p->value.rows(); ++r) {
      for (size_t c = 0; c < p->value.cols(); ++c) {
        EXPECT_NEAR(p->grad(r, c), NumericalGrad(p, r, c, loss), 1e-5);
      }
    }
  }
}

TEST(AttentionTest, AttendsToRelevantNews) {
  // Train the block so that output should depend on which news row aligns
  // with the query; with aligned K/Q init this shows up as non-uniform
  // weights after a few steps of gradient descent toward a target.
  Rng rng(9);
  ExogenousAttention att(4, 4, 6);
  ParamRegistry reg = InitLayer(&att, &rng);
  Matrix news(2, 4);
  news.SetRow(0, {1.0, 1.0, 0.0, 0.0});
  news.SetRow(1, {0.0, 0.0, 1.0, 1.0});
  const Vec tweet = {1.0, 1.0, 0.0, 0.0};  // aligned with row 0

  Adam opt(0.05);
  opt.Register(reg);
  // Target: maximize out[0] while the weights must pick one row; this
  // pushes attention toward a peaked distribution.
  for (int step = 0; step < 200; ++step) {
    AttentionCache cache;
    const Vec out = att.Forward(tweet, news, &cache);
    Vec dy(out.size(), 0.0);
    dy[0] = -1.0;  // gradient descent on loss = -out[0]
    att.Backward(cache, dy);
    opt.Step();
  }
  AttentionCache cache;
  (void)att.Forward(tweet, news, &cache);
  const double peak =
      std::max(cache.weights[0], cache.weights[1]);
  EXPECT_GT(peak, 0.8);
}


// -------------------------------------------------------------- Recurrent --

class RecurrentCellTest
    : public ::testing::TestWithParam<RecurrentKind> {};

INSTANTIATE_TEST_SUITE_P(AllCells, RecurrentCellTest,
                         ::testing::Values(RecurrentKind::kGru,
                                           RecurrentKind::kLstm,
                                           RecurrentKind::kSimpleRnn));

TEST_P(RecurrentCellTest, OutputIsHiddenPrefixOfState) {
  Rng rng(11);
  auto cell = MakeRecurrentCell(GetParam(), 3, 5);
  ASSERT_NE(cell, nullptr);
  InitLayer(cell.get(), &rng);
  EXPECT_EQ(cell->hidden_dim(), 5u);
  EXPECT_GE(cell->state_dim(), cell->hidden_dim());
  const Vec state = cell->Forward({0.1, -0.2, 0.4},
                                  Vec(cell->state_dim(), 0.0), nullptr);
  EXPECT_EQ(state.size(), cell->state_dim());
}

TEST_P(RecurrentCellTest, GradientCheckSingleStep) {
  Rng rng(12);
  auto cell = MakeRecurrentCell(GetParam(), 3, 4);
  ParamRegistry reg = InitLayer(cell.get(), &rng);
  const Vec x = {0.3, -0.5, 0.8};
  Vec s0(cell->state_dim());
  Rng srng(13);
  for (double& v : s0) v = srng.Uniform(-0.3, 0.3);
  Vec dy(cell->state_dim());
  for (double& v : dy) v = srng.Normal();

  auto loss = [&]() { return Dot(dy, cell->Forward(x, s0, nullptr)); };

  RecCache cache;
  (void)cell->Forward(x, s0, &cache);
  reg.ZeroGrads();
  Vec dx, ds0;
  cell->Backward(cache, dy, &dx, &ds0);

  for (Param* p : reg.params()) {
    for (size_t r = 0; r < p->value.rows(); ++r) {
      for (size_t c = 0; c < p->value.cols(); ++c) {
        EXPECT_NEAR(p->grad(r, c), NumericalGrad(p, r, c, loss), 1e-5);
      }
    }
  }
  for (size_t j = 0; j < x.size(); ++j) {
    Vec xp = x, xm = x;
    xp[j] += kEps;
    xm[j] -= kEps;
    const double num = (Dot(dy, cell->Forward(xp, s0, nullptr)) -
                        Dot(dy, cell->Forward(xm, s0, nullptr))) /
                       (2.0 * kEps);
    EXPECT_NEAR(dx[j], num, 1e-5);
  }
  for (size_t j = 0; j < s0.size(); ++j) {
    Vec sp = s0, sm = s0;
    sp[j] += kEps;
    sm[j] -= kEps;
    const double num = (Dot(dy, cell->Forward(x, sp, nullptr)) -
                        Dot(dy, cell->Forward(x, sm, nullptr))) /
                       (2.0 * kEps);
    EXPECT_NEAR(ds0[j], num, 1e-5);
  }
}

TEST_P(RecurrentCellTest, GradientCheckTwoStepBptt) {
  Rng rng(14);
  auto cell = MakeRecurrentCell(GetParam(), 2, 3);
  ParamRegistry reg = InitLayer(cell.get(), &rng);
  const Vec x0 = {0.4, -0.6}, x1 = {-0.1, 0.7};
  Vec dy(cell->state_dim());
  Rng srng(15);
  for (double& v : dy) v = srng.Normal();

  auto loss = [&]() {
    const Vec s1 = cell->Forward(x0, Vec(cell->state_dim(), 0.0), nullptr);
    return Dot(dy, cell->Forward(x1, s1, nullptr));
  };

  RecCache c0, c1;
  const Vec s1 = cell->Forward(x0, Vec(cell->state_dim(), 0.0), &c0);
  (void)cell->Forward(x1, s1, &c1);
  reg.ZeroGrads();
  Vec dx1, ds1;
  cell->Backward(c1, dy, &dx1, &ds1);
  Vec dx0, ds_init;
  cell->Backward(c0, ds1, &dx0, &ds_init);

  for (Param* p : reg.params()) {
    for (size_t r = 0; r < p->value.rows(); ++r) {
      for (size_t c = 0; c < p->value.cols(); ++c) {
        EXPECT_NEAR(p->grad(r, c), NumericalGrad(p, r, c, loss), 1e-5);
      }
    }
  }
}

TEST(RecurrentKindTest, Names) {
  EXPECT_STREQ(RecurrentKindName(RecurrentKind::kGru), "GRU");
  EXPECT_STREQ(RecurrentKindName(RecurrentKind::kLstm), "LSTM");
  EXPECT_STREQ(RecurrentKindName(RecurrentKind::kSimpleRnn), "SimpleRNN");
}

TEST(LstmTest, ForgetBiasInitializedToOne) {
  Rng rng(16);
  LstmCell cell(2, 3);
  InitLayer(&cell, &rng);
  // With zero input and zero state, f = sigmoid(1) ~ 0.73: the cell keeps
  // most of its (zero) memory and output stays small.
  const Vec state = cell.Forward({0.0, 0.0}, Vec(6, 0.0), nullptr);
  for (double v : state) EXPECT_LT(std::abs(v), 1.0);
}

// ------------------------------------------------------------- Optimizers --

TEST(OptimizerTest, SgdDescendsQuadratic) {
  Param p(1, 1);
  p.value(0, 0) = 5.0;
  ParamRegistry reg;
  reg.Register("p", &p);
  Sgd opt(0.1);
  opt.Register(reg);
  for (int i = 0; i < 200; ++i) {
    p.grad(0, 0) = 2.0 * p.value(0, 0);  // d/dx x^2
    opt.Step();
  }
  EXPECT_NEAR(p.value(0, 0), 0.0, 1e-6);
}

TEST(OptimizerTest, SgdMomentumFasterOnIllConditioned) {
  auto run = [](double momentum) {
    Param p(1, 1);
    p.value(0, 0) = 5.0;
    ParamRegistry reg;
    reg.Register("p", &p);
    Sgd opt(0.01, momentum);
    opt.Register(reg);
    for (int i = 0; i < 100; ++i) {
      p.grad(0, 0) = 2.0 * p.value(0, 0);
      opt.Step();
    }
    return std::abs(p.value(0, 0));
  };
  EXPECT_LT(run(0.9), run(0.0));
}

TEST(OptimizerTest, AdamDescendsQuadratic) {
  Param p(1, 2);
  p.value(0, 0) = 3.0;
  p.value(0, 1) = -4.0;
  ParamRegistry reg;
  reg.Register("p", &p);
  Adam opt(0.05);
  opt.Register(reg);
  for (int i = 0; i < 500; ++i) {
    p.grad(0, 0) = 2.0 * p.value(0, 0);
    p.grad(0, 1) = 2.0 * p.value(0, 1);
    opt.Step();
  }
  EXPECT_NEAR(p.value(0, 0), 0.0, 1e-3);
  EXPECT_NEAR(p.value(0, 1), 0.0, 1e-3);
}

TEST(OptimizerTest, StepZeroesGradients) {
  Param p(1, 1);
  p.grad(0, 0) = 1.0;
  ParamRegistry reg;
  reg.Register("p", &p);
  Adam opt(0.1);
  opt.Register(reg);
  opt.Step();
  EXPECT_DOUBLE_EQ(p.grad(0, 0), 0.0);
}

TEST(ParamTest, GlorotInitWithinLimit) {
  Rng rng(10);
  Param p(20, 30);
  p.InitGlorot(&rng);
  const double limit = std::sqrt(6.0 / 50.0);
  for (double v : p.value.data()) {
    EXPECT_GE(v, -limit);
    EXPECT_LE(v, limit);
  }
}

}  // namespace
}  // namespace retina::nn
