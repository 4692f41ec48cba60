#include "core/hategen_task.h"

#include <algorithm>

#include "common/parallel.h"
#include "ml/adaboost.h"
#include "ml/decision_tree.h"
#include "ml/gradient_boosting.h"
#include "ml/logistic_regression.h"
#include "ml/metrics.h"
#include "ml/preprocess.h"
#include "ml/svm.h"

namespace retina::core {

Result<HateGenTask> BuildHateGenTask(const FeatureExtractor& extractor,
                                     const HateGenTaskOptions& options,
                                     const FeatureMask& mask) {
  const datagen::SyntheticWorld& world = extractor.world();
  const auto& tweets = world.tweets();
  if (tweets.empty()) {
    return Status::FailedPrecondition("BuildHateGenTask: no tweets");
  }

  // Qualifying tweets: enough mapped news before posting time.
  std::vector<size_t> eligible;
  for (size_t i = 0; i < tweets.size(); ++i) {
    if (world.news().MostRecentBefore(tweets[i].time, options.min_news)
            .size() >= options.min_news) {
      eligible.push_back(i);
    }
  }
  if (eligible.size() < 50) {
    return Status::FailedPrecondition(
        "BuildHateGenTask: too few tweets with full news coverage");
  }

  Rng rng(options.seed);
  rng.Shuffle(&eligible);
  const size_t n_test = static_cast<size_t>(options.test_fraction *
                                            static_cast<double>(eligible.size()));

  HateGenTask task;
  task.dim = extractor.HateGenDim(mask);
  const size_t n_train = eligible.size() - n_test;
  task.train.X = Matrix(n_train, task.dim);
  task.train.y.resize(n_train);
  task.test.X = Matrix(n_test, task.dim);
  task.test.y.resize(n_test);

  // Each row is a pure function of the fitted extractor and its tweet, and
  // owns its matrix row and label slot, so the rows are bit-identical at
  // any thread count.
  par::ParallelFor(eligible.size(), /*grain=*/1, [&](size_t k) {
    const datagen::Tweet& tw = tweets[eligible[k]];
    const Vec x =
        extractor.HateGenFeatures(tw.author, tw.hashtag, tw.time, mask);
    if (k < n_test) {
      task.test.X.SetRow(k, x);
      task.test.y[k] = tw.is_hateful ? 1 : 0;  // gold
    } else {
      task.train.X.SetRow(k - n_test, x);
      task.train.y[k - n_test] = tw.machine_hateful ? 1 : 0;  // machine
    }
  });
  return task;
}

const char* ProcVariantName(ProcVariant v) {
  switch (v) {
    case ProcVariant::kNone:
      return "None";
    case ProcVariant::kDownsample:
      return "DS";
    case ProcVariant::kUpDownsample:
      return "US+DS";
    case ProcVariant::kPca:
      return "PCA";
    case ProcVariant::kTopK:
      return "top-K";
  }
  return "?";
}

Result<EvalResult> RunHateGenPipeline(const HateGenTask& task,
                                      ml::BinaryClassifier* model,
                                      ProcVariant proc, uint64_t seed) {
  Rng rng(seed);
  ml::Dataset train = task.train;
  Matrix test_x = task.test.X;

  // Feature reduction first (fit on the full training set), sampling after.
  if (proc == ProcVariant::kPca) {
    ml::Pca pca;
    RETINA_RETURN_NOT_OK(pca.Fit(train.X));
    train.X = pca.TransformBatch(train.X);
    test_x = pca.TransformBatch(test_x);
  } else if (proc == ProcVariant::kTopK) {
    ml::KBestMutualInfo kbest(50);
    RETINA_RETURN_NOT_OK(kbest.Fit(train.X, train.y));
    train.X = kbest.TransformBatch(train.X);
    test_x = kbest.TransformBatch(test_x);
  }

  if (proc == ProcVariant::kDownsample) {
    train = ml::DownsampleMajority(train, &rng);
  } else if (proc == ProcVariant::kUpDownsample) {
    train = ml::UpDownsample(train, &rng);
  }

  RETINA_RETURN_NOT_OK(model->Fit(train.X, train.y));

  EvalResult result;
  result.model = model->Name();
  result.proc = ProcVariantName(proc);
  const Vec scores = model->PredictProbaBatch(test_x);
  const std::vector<int> pred = ml::Threshold(scores);
  result.macro_f1 = ml::MacroF1(task.test.y, pred);
  result.accuracy = ml::Accuracy(task.test.y, pred);
  result.auc = ml::RocAuc(task.test.y, scores);
  return result;
}

std::vector<std::unique_ptr<ml::BinaryClassifier>> MakeHateGenModelZoo() {
  std::vector<std::unique_ptr<ml::BinaryClassifier>> zoo;
  // SVM-linear: penalty=l2, class_weight=balanced (Table III).
  {
    ml::LinearSVMOptions opts;
    opts.balanced_class_weight = true;
    zoo.push_back(std::make_unique<ml::LinearSVM>(opts));
  }
  // SVM-rbf: class_weight=balanced.
  {
    ml::KernelSVMOptions opts;
    opts.linear.balanced_class_weight = true;
    zoo.push_back(std::make_unique<ml::KernelSVM>(opts));
  }
  // Logistic regression: random_state=0.
  {
    ml::LogisticRegressionOptions opts;
    opts.seed = 0;
    opts.balanced_class_weight = false;
    zoo.push_back(std::make_unique<ml::LogisticRegression>(opts));
  }
  // Decision tree: class_weight=balanced, max_depth=5.
  {
    ml::DecisionTreeOptions opts;
    opts.max_depth = 5;
    opts.balanced_class_weight = true;
    zoo.push_back(std::make_unique<ml::DecisionTree>(opts));
  }
  // AdaBoost: random_state=1.
  {
    ml::AdaBoostOptions opts;
    opts.seed = 1;
    zoo.push_back(std::make_unique<ml::AdaBoost>(opts));
  }
  // XGBoost: eta=0.4 overridden by learning_rate=1e-4 (the alias xgboost
  // honors), objective=binary:logistic, reg_alpha=0.9.
  {
    ml::GradientBoostingOptions opts;
    opts.learning_rate = 1e-4;
    opts.reg_alpha = 0.9;
    opts.n_estimators = 60;
    opts.max_depth = 4;
    zoo.push_back(std::make_unique<ml::GradientBoosting>(opts));
  }
  return zoo;
}

}  // namespace retina::core
