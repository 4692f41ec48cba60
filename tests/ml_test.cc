// Tests for src/ml: metrics, dataset utilities, dimensionality reduction
// and the six classifiers (on synthetic separable / noisy data).

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "common/rng.h"
#include "ml/adaboost.h"
#include "ml/dataset.h"
#include "ml/decision_tree.h"
#include "ml/gradient_boosting.h"
#include "ml/logistic_regression.h"
#include "ml/metrics.h"
#include "ml/preprocess.h"
#include "ml/random_forest.h"
#include "ml/svm.h"

namespace retina::ml {
namespace {

// --------------------------------------------------------------- Metrics --

TEST(MetricsTest, ConfusionCounts) {
  const Confusion c = Confusion::FromPredictions({1, 1, 0, 0, 1},
                                                 {1, 0, 0, 1, 1});
  EXPECT_EQ(c.tp, 2u);
  EXPECT_EQ(c.fn, 1u);
  EXPECT_EQ(c.fp, 1u);
  EXPECT_EQ(c.tn, 1u);
  EXPECT_DOUBLE_EQ(c.Accuracy(), 0.6);
  EXPECT_DOUBLE_EQ(c.Precision(), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(c.Recall(), 2.0 / 3.0);
}

TEST(MetricsTest, PerfectMacroF1) {
  EXPECT_DOUBLE_EQ(MacroF1({1, 0, 1}, {1, 0, 1}), 1.0);
}

TEST(MetricsTest, MajorityVotePenalizedByMacroF1) {
  // Predicting all-negative on imbalanced data: high ACC, low macro-F1.
  std::vector<int> y_true(100, 0), y_pred(100, 0);
  for (int i = 0; i < 5; ++i) y_true[i] = 1;
  EXPECT_DOUBLE_EQ(Accuracy(y_true, y_pred), 0.95);
  const double f1 = MacroF1(y_true, y_pred);
  EXPECT_LT(f1, 0.55);
  EXPECT_GT(f1, 0.4);
}

TEST(MetricsTest, AucPerfectRanking) {
  EXPECT_DOUBLE_EQ(RocAuc({0, 0, 1, 1}, {0.1, 0.2, 0.8, 0.9}), 1.0);
  EXPECT_DOUBLE_EQ(RocAuc({0, 0, 1, 1}, {0.9, 0.8, 0.2, 0.1}), 0.0);
}

TEST(MetricsTest, AucRandomScoresNearHalf) {
  Rng rng(1);
  std::vector<int> y(5000);
  Vec s(5000);
  for (size_t i = 0; i < y.size(); ++i) {
    y[i] = rng.Bernoulli(0.3);
    s[i] = rng.Uniform();
  }
  EXPECT_NEAR(RocAuc(y, s), 0.5, 0.03);
}

TEST(MetricsTest, AucTiesAveraged) {
  // All scores equal: AUC must be exactly 0.5.
  EXPECT_DOUBLE_EQ(RocAuc({0, 1, 0, 1}, {0.5, 0.5, 0.5, 0.5}), 0.5);
}

TEST(MetricsTest, AucDegenerateClassIsHalf) {
  EXPECT_DOUBLE_EQ(RocAuc({1, 1}, {0.3, 0.7}), 0.5);
  EXPECT_DOUBLE_EQ(RocAuc({0, 0}, {0.3, 0.7}), 0.5);
}

TEST(MetricsTest, ThresholdDefaults) {
  EXPECT_EQ(Threshold({0.2, 0.5, 0.9}), (std::vector<int>{0, 1, 1}));
}

TEST(MetricsTest, MapAtKPerfect) {
  RankingQuery q;
  q.scores = {0.9, 0.8, 0.1, 0.05};
  q.relevant = {1, 1, 0, 0};
  EXPECT_DOUBLE_EQ(MeanAveragePrecisionAtK({q}, 2), 1.0);
}

TEST(MetricsTest, MapAtKWorstRanking) {
  RankingQuery q;
  q.scores = {0.9, 0.8, 0.1, 0.05};
  q.relevant = {0, 0, 1, 1};
  // AP@4 with relevant at ranks 3,4: (1/3 + 2/4)/2.
  EXPECT_NEAR(MeanAveragePrecisionAtK({q}, 4), (1.0 / 3 + 0.5) / 2, 1e-12);
}

TEST(MetricsTest, MapSkipsQueriesWithoutRelevant) {
  RankingQuery good{{0.9, 0.1}, {1, 0}};
  RankingQuery empty{{0.9, 0.1}, {0, 0}};
  EXPECT_DOUBLE_EQ(MeanAveragePrecisionAtK({good, empty}, 2), 1.0);
  EXPECT_DOUBLE_EQ(MeanAveragePrecisionAtK({empty}, 2), 0.0);
}

TEST(MetricsTest, HitsAtKIsRecallAtK) {
  RankingQuery q;
  q.scores = {0.9, 0.8, 0.7, 0.1};
  q.relevant = {1, 0, 1, 1};  // 3 relevant
  // Top-2 contains 1 of min(3,2)=2 → 0.5.
  EXPECT_DOUBLE_EQ(HitsAtK({q}, 2), 0.5);
  // Top-4 contains all 3 of min(3,4)=3 → 1.
  EXPECT_DOUBLE_EQ(HitsAtK({q}, 4), 1.0);
}

// --------------------------------------------------------------- Dataset --

Dataset ImbalancedSet(size_t n, double pos_rate, uint64_t seed) {
  Rng rng(seed);
  Dataset d;
  d.X = Matrix(n, 3);
  d.y.resize(n);
  for (size_t i = 0; i < n; ++i) {
    d.y[i] = rng.Bernoulli(pos_rate) ? 1 : 0;
    // Feature 0 is informative, 1-2 noise.
    d.X(i, 0) = d.y[i] + rng.Normal(0.0, 0.8);
    d.X(i, 1) = rng.Normal();
    d.X(i, 2) = rng.Uniform();
  }
  return d;
}

TEST(DatasetTest, SelectAndCounts) {
  const Dataset d = ImbalancedSet(100, 0.2, 3);
  const Dataset sub = d.Select({0, 5, 10});
  EXPECT_EQ(sub.NumRows(), 3u);
  EXPECT_EQ(sub.y[1], d.y[5]);
  EXPECT_EQ(sub.X.RowVec(2), d.X.RowVec(10));
}

TEST(DatasetTest, DownsampleBalances) {
  const Dataset d = ImbalancedSet(1000, 0.1, 9);
  Rng rng(11);
  const Dataset ds = DownsampleMajority(d, &rng);
  const size_t pos = ds.NumPositives();
  EXPECT_EQ(ds.NumRows(), 2 * pos);
  EXPECT_EQ(pos, d.NumPositives());
}

TEST(DatasetTest, UpDownsampleGeometricMean) {
  const Dataset d = ImbalancedSet(1000, 0.1, 13);
  Rng rng(17);
  const Dataset s = UpDownsample(d, &rng);
  const size_t pos = s.NumPositives();
  const size_t neg = s.NumRows() - pos;
  EXPECT_EQ(pos, neg);
  const double target = std::sqrt(static_cast<double>(d.NumPositives()) *
                                  static_cast<double>(1000 - d.NumPositives()));
  EXPECT_NEAR(static_cast<double>(pos), target, 2.0);
}

TEST(StandardScalerTest, ZeroMeanUnitVariance) {
  const Dataset d = ImbalancedSet(500, 0.5, 29);
  StandardScaler scaler;
  scaler.Fit(d.X);
  Matrix x = d.X;
  scaler.Transform(&x);
  for (size_t j = 0; j < x.cols(); ++j) {
    double mean = 0.0, var = 0.0;
    for (size_t i = 0; i < x.rows(); ++i) mean += x(i, j);
    mean /= static_cast<double>(x.rows());
    for (size_t i = 0; i < x.rows(); ++i) {
      var += (x(i, j) - mean) * (x(i, j) - mean);
    }
    var /= static_cast<double>(x.rows());
    EXPECT_NEAR(mean, 0.0, 1e-9);
    EXPECT_NEAR(var, 1.0, 1e-6);
  }
}

TEST(StandardScalerTest, ConstantColumnSafe) {
  Matrix x(10, 1, 3.0);
  StandardScaler scaler;
  scaler.Fit(x);
  scaler.Transform(&x);
  for (size_t i = 0; i < 10; ++i) EXPECT_DOUBLE_EQ(x(i, 0), 0.0);
}

// ----------------------------------------------------------- Classifiers --

// Linearly separable blob pair.
Dataset Blobs(size_t n, double gap, uint64_t seed) {
  Rng rng(seed);
  Dataset d;
  d.X = Matrix(n, 4);
  d.y.resize(n);
  for (size_t i = 0; i < n; ++i) {
    d.y[i] = (i % 2 == 0) ? 1 : 0;
    const double center = d.y[i] == 1 ? gap : -gap;
    for (size_t j = 0; j < 4; ++j) d.X(i, j) = center + rng.Normal();
  }
  return d;
}

// XOR pattern: not linearly separable.
Dataset Xor(size_t n, uint64_t seed) {
  Rng rng(seed);
  Dataset d;
  d.X = Matrix(n, 2);
  d.y.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const double a = rng.Bernoulli(0.5) ? 1.0 : -1.0;
    const double b = rng.Bernoulli(0.5) ? 1.0 : -1.0;
    d.X(i, 0) = a + rng.Normal(0.0, 0.2);
    d.X(i, 1) = b + rng.Normal(0.0, 0.2);
    d.y[i] = (a * b > 0) ? 1 : 0;
  }
  return d;
}

double TestAccuracy(BinaryClassifier* model, const Dataset& test) {
  return Accuracy(test.y, model->PredictBatch(test.X));
}

class SeparableModelTest
    : public ::testing::TestWithParam<int> {};

std::unique_ptr<BinaryClassifier> MakeModel(int which) {
  switch (which) {
    case 0:
      return std::make_unique<LogisticRegression>();
    case 1:
      return std::make_unique<LinearSVM>();
    case 2:
      return std::make_unique<KernelSVM>();
    case 3: {
      DecisionTreeOptions opts;
      opts.max_depth = 6;
      return std::make_unique<DecisionTree>(opts);
    }
    case 4:
      return std::make_unique<RandomForest>();
    case 5:
      return std::make_unique<AdaBoost>();
    case 6: {
      GradientBoostingOptions opts;
      opts.learning_rate = 0.3;
      opts.n_estimators = 40;
      return std::make_unique<GradientBoosting>(opts);
    }
  }
  return nullptr;
}

TEST_P(SeparableModelTest, LearnsSeparableBlobs) {
  auto model = MakeModel(GetParam());
  ASSERT_NE(model, nullptr);
  const Dataset train = Blobs(600, 1.5, 31);
  const Dataset test = Blobs(200, 1.5, 37);
  ASSERT_TRUE(model->Fit(train.X, train.y).ok());
  EXPECT_GT(TestAccuracy(model.get(), test), 0.9) << model->Name();
}

TEST_P(SeparableModelTest, RejectsBadShapes) {
  auto model = MakeModel(GetParam());
  Matrix x(3, 2);
  EXPECT_FALSE(model->Fit(x, {1, 0}).ok());
  EXPECT_FALSE(model->Fit(Matrix(), {}).ok());
}

TEST_P(SeparableModelTest, ProbabilitiesInUnitInterval) {
  auto model = MakeModel(GetParam());
  const Dataset train = Blobs(300, 1.0, 41);
  ASSERT_TRUE(model->Fit(train.X, train.y).ok());
  const Vec p = model->PredictProbaBatch(train.X);
  for (double v : p) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(AllModels, SeparableModelTest,
                         ::testing::Range(0, 7));

TEST(KernelSvmTest, SolvesXorWhereLinearFails) {
  const Dataset train = Xor(800, 43);
  const Dataset test = Xor(300, 47);

  LinearSVM linear;
  ASSERT_TRUE(linear.Fit(train.X, train.y).ok());
  const double linear_acc = TestAccuracy(&linear, test);

  KernelSVMOptions opts;
  opts.gamma = 1.0;
  opts.n_components = 128;
  KernelSVM rbf(opts);
  ASSERT_TRUE(rbf.Fit(train.X, train.y).ok());
  const double rbf_acc = TestAccuracy(&rbf, test);

  EXPECT_LT(linear_acc, 0.70);
  EXPECT_GT(rbf_acc, 0.85);
}

TEST(DecisionTreeTest, SolvesXor) {
  const Dataset train = Xor(800, 53);
  const Dataset test = Xor(300, 59);
  DecisionTreeOptions opts;
  opts.max_depth = 4;
  DecisionTree tree(opts);
  ASSERT_TRUE(tree.Fit(train.X, train.y).ok());
  EXPECT_GT(TestAccuracy(&tree, test), 0.9);
}

TEST(DecisionTreeTest, DepthZeroIsPrior) {
  DecisionTreeOptions opts;
  opts.max_depth = 0;
  opts.balanced_class_weight = false;
  DecisionTree tree(opts);
  const Dataset d = Blobs(100, 2.0, 61);
  ASSERT_TRUE(tree.Fit(d.X, d.y).ok());
  EXPECT_EQ(tree.NumNodes(), 1u);
  EXPECT_NEAR(tree.PredictProba(d.X.RowVec(0)), 0.5, 0.05);
}

TEST(DecisionTreeTest, BalancedWeightingLiftsMinorityRecall) {
  const Dataset d = ImbalancedSet(2000, 0.05, 67);
  DecisionTreeOptions balanced;
  balanced.max_depth = 4;
  balanced.balanced_class_weight = true;
  DecisionTree bt(balanced);
  ASSERT_TRUE(bt.Fit(d.X, d.y).ok());

  DecisionTreeOptions plain = balanced;
  plain.balanced_class_weight = false;
  DecisionTree pt(plain);
  ASSERT_TRUE(pt.Fit(d.X, d.y).ok());

  const Confusion cb =
      Confusion::FromPredictions(d.y, bt.PredictBatch(d.X));
  const Confusion cp =
      Confusion::FromPredictions(d.y, pt.PredictBatch(d.X));
  EXPECT_GE(cb.Recall(), cp.Recall());
  EXPECT_GT(cb.Recall(), 0.5);
}

TEST(AdaBoostTest, BoostingBeatsSingleBaseTree) {
  // Depth-2 base trees: a single one fits XOR imperfectly on noisy data;
  // boosting sharpens it. (Depth-1 stumps cannot progress on symmetric
  // XOR — their weighted error stays at 0.5 — which is why base_depth is
  // configurable.)
  const Dataset train = Xor(800, 71);
  const Dataset test = Xor(300, 73);
  AdaBoostOptions opts;
  opts.n_estimators = 60;
  opts.base_depth = 2;
  AdaBoost boost(opts);
  ASSERT_TRUE(boost.Fit(train.X, train.y).ok());
  EXPECT_GT(TestAccuracy(&boost, test), 0.9);
}

TEST(AdaBoostTest, StumpsCannotLearnSymmetricXor) {
  const Dataset train = Xor(800, 79);
  AdaBoostOptions opts;
  opts.n_estimators = 40;
  opts.base_depth = 1;
  AdaBoost boost(opts);
  ASSERT_TRUE(boost.Fit(train.X, train.y).ok());
  EXPECT_LT(TestAccuracy(&boost, train), 0.7);
}

TEST(GradientBoostingTest, TinyLearningRateStaysNearPrior) {
  // Reproduces the paper's XGBoost pathology (learning_rate=1e-4).
  GradientBoostingOptions opts;
  opts.learning_rate = 1e-4;
  opts.n_estimators = 30;
  GradientBoosting gb(opts);
  const Dataset d = Blobs(400, 2.0, 79);
  ASSERT_TRUE(gb.Fit(d.X, d.y).ok());
  // Predictions barely move off the base rate (0.5 here).
  const Vec p = gb.PredictProbaBatch(d.X);
  for (double v : p) EXPECT_NEAR(v, 0.5, 0.05);
}

TEST(GradientBoostingTest, RegAlphaShrinksLeaves) {
  const Dataset d = Blobs(300, 1.0, 83);
  GradientBoostingOptions weak;
  weak.learning_rate = 0.3;
  weak.n_estimators = 5;
  weak.reg_alpha = 0.0;
  GradientBoosting a(weak);
  ASSERT_TRUE(a.Fit(d.X, d.y).ok());
  weak.reg_alpha = 50.0;  // aggressive L1: gradients fully thresholded
  GradientBoosting b(weak);
  ASSERT_TRUE(b.Fit(d.X, d.y).ok());
  // With huge alpha, predictions collapse to the prior.
  const Vec pa = a.PredictProbaBatch(d.X);
  const Vec pb = b.PredictProbaBatch(d.X);
  EXPECT_GT(Variance(pa), Variance(pb));
}

TEST(RandomForestTest, HasConfiguredTreeCount) {
  RandomForestOptions opts;
  opts.n_estimators = 10;
  RandomForest rf(opts);
  const Dataset d = Blobs(200, 1.5, 89);
  ASSERT_TRUE(rf.Fit(d.X, d.y).ok());
  EXPECT_EQ(rf.NumTrees(), 10u);
}

// ------------------------------------------------------------------- PCA --

TEST(PcaTest, RecoversDominantDirection) {
  Rng rng(97);
  const size_t n = 600;
  Matrix x(n, 5);
  // Variance concentrated along (1,1,0,0,0)/sqrt(2).
  for (size_t i = 0; i < n; ++i) {
    const double t = rng.Normal(0.0, 3.0);
    x(i, 0) = t + rng.Normal(0.0, 0.1);
    x(i, 1) = t + rng.Normal(0.0, 0.1);
    for (size_t j = 2; j < 5; ++j) x(i, j) = rng.Normal(0.0, 0.1);
  }
  PcaOptions opts;
  opts.n_components = 2;
  Pca pca(opts);
  ASSERT_TRUE(pca.Fit(x).ok());
  EXPECT_GT(pca.explained_variance()[0],
            20.0 * pca.explained_variance()[1]);
  // First transformed coordinate should carry nearly all the variance.
  const Matrix z = pca.TransformBatch(x);
  Vec c0(n), c1(n);
  for (size_t i = 0; i < n; ++i) {
    c0[i] = z(i, 0);
    c1[i] = z(i, 1);
  }
  EXPECT_GT(Variance(c0), 20.0 * Variance(c1));
}

TEST(PcaTest, RejectsTooManyComponents) {
  Pca pca(PcaOptions{.n_components = 10});
  Matrix x(5, 3);
  EXPECT_FALSE(pca.Fit(x).ok());
}

TEST(PcaTest, TransformIsCentered) {
  Rng rng(101);
  Matrix x(200, 4);
  for (auto& v : x.data()) v = 5.0 + rng.Normal();
  PcaOptions opts;
  opts.n_components = 2;
  Pca pca(opts);
  ASSERT_TRUE(pca.Fit(x).ok());
  // Mean of transformed data ~ 0.
  const Matrix z = pca.TransformBatch(x);
  for (size_t j = 0; j < z.cols(); ++j) {
    double mean = 0.0;
    for (size_t i = 0; i < z.rows(); ++i) mean += z(i, j);
    EXPECT_NEAR(mean / static_cast<double>(z.rows()), 0.0, 1e-6);
  }
}

// ------------------------------------------------------------- KBest MI --

TEST(KBestTest, SelectsInformativeFeature) {
  const Dataset d = ImbalancedSet(2000, 0.3, 103);  // feature 0 informative
  KBestMutualInfo kbest(1);
  ASSERT_TRUE(kbest.Fit(d.X, d.y).ok());
  ASSERT_EQ(kbest.selected().size(), 1u);
  EXPECT_EQ(kbest.selected()[0], 0u);
  EXPECT_GT(kbest.scores()[0], kbest.scores()[1]);
  EXPECT_GT(kbest.scores()[0], kbest.scores()[2]);
}

TEST(KBestTest, TransformKeepsSelectedColumns) {
  const Dataset d = ImbalancedSet(500, 0.3, 107);
  KBestMutualInfo kbest(2);
  ASSERT_TRUE(kbest.Fit(d.X, d.y).ok());
  const Vec row = d.X.RowVec(0);
  const Vec t = kbest.Transform(row);
  ASSERT_EQ(t.size(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_DOUBLE_EQ(t[i], row[kbest.selected()[i]]);
  }
}

TEST(KBestTest, KLargerThanDimsKeepsAll) {
  const Dataset d = ImbalancedSet(200, 0.3, 109);
  KBestMutualInfo kbest(50);
  ASSERT_TRUE(kbest.Fit(d.X, d.y).ok());
  EXPECT_EQ(kbest.selected().size(), 3u);
}

}  // namespace
}  // namespace retina::ml
