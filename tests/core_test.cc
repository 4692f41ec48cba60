// Tests for src/core: feature extraction, the two task builders, and
// RETINA training/prediction (static, dynamic and the † ablation).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "core/feature_extractor.h"
#include "core/hategen_task.h"
#include "core/retina.h"
#include "core/retweet_task.h"
#include "hatedetect/annotation.h"
#include "io/checkpoint.h"
#include "ml/decision_tree.h"
#include "ml/metrics.h"
#include "nn/layers.h"
#include "nn/recurrent.h"

namespace retina::core {
namespace {

datagen::WorldConfig TestConfig() {
  datagen::WorldConfig config;
  config.scale = 0.05;
  config.num_users = 900;
  config.history_length = 14;
  config.news_per_day = 50.0;
  return config;
}

FeatureConfig TestFeatureConfig() {
  FeatureConfig config;
  config.history_size = 10;
  config.history_tfidf_dim = 80;
  config.news_tfidf_dim = 80;
  config.tweet_tfidf_dim = 80;
  config.news_window = 20;
  config.doc2vec_dim = 16;
  config.doc2vec_epochs = 3;
  return config;
}

struct Fixture {
  datagen::SyntheticWorld world;
  std::unique_ptr<FeatureExtractor> extractor;
};

Fixture& SharedFixture() {
  static Fixture* fixture = [] {
    auto* f = new Fixture{
        datagen::SyntheticWorld::Generate(TestConfig(), 31), nullptr};
    hatedetect::AnnotationOptions aopts;
    auto report = hatedetect::AnnotateWorld(&f->world, aopts);
    EXPECT_TRUE(report.ok());
    auto fx = FeatureExtractor::Build(f->world, TestFeatureConfig());
    EXPECT_TRUE(fx.ok());
    f->extractor =
        std::make_unique<FeatureExtractor>(std::move(fx).ValueOrDie());
    return f;
  }();
  return *fixture;
}

// A new extractor over the fixture world, restored from the shared one's
// fitted state, so no earlier call on the shared extractor can reach it.
FeatureExtractor FreshExtractor() {
  auto& f = SharedFixture();
  io::Checkpoint ckpt;
  f.extractor->SaveTo(&ckpt, "features/");
  auto fx = FeatureExtractor::Restore(f.world, ckpt, "features/");
  EXPECT_TRUE(fx.ok()) << fx.status().ToString();
  return std::move(fx).ValueOrDie();
}

// User-side row for `user` on `tweet`, built the way the task builder and
// the scoring engine build it.
Vec AssembledUserRow(const FeatureExtractor& fx, const datagen::Tweet& tweet,
                     NodeId user, int path_length) {
  Vec row(fx.RetweetUserDim());
  fx.AssembleRetweetUserFeaturesInto(
      tweet, user, SparseVec::FromDense(fx.ComputeHistoryBlock(user)),
      fx.world().TrendingIndicator(tweet.time, fx.config().trending_dim),
      path_length, row.data());
  return row;
}

RetweetTaskOptions TestRetweetOptions() {
  RetweetTaskOptions opts;
  opts.min_news = 20;
  opts.max_candidates = 24;
  return opts;
}

bool BitEqual(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.data().size() * sizeof(double)) == 0;
}

// --------------------------------------------------------------- Features --

TEST(FeatureMaskTest, WithoutDisablesExactlyOneGroup) {
  const FeatureMask h = FeatureMask::Without("history");
  EXPECT_FALSE(h.history);
  EXPECT_TRUE(h.topic && h.endogenous && h.exogenous);
  const FeatureMask e = FeatureMask::Without("exogenous");
  EXPECT_FALSE(e.exogenous);
  EXPECT_TRUE(e.history && e.topic && e.endogenous);
}

TEST(FeatureExtractorTest, DimsAreConsistent) {
  auto& f = SharedFixture();
  const FeatureExtractor& fx = *f.extractor;
  const size_t full = fx.HateGenDim();
  EXPECT_EQ(full, fx.HistoryBlockDim() + 1 + 50 + 80);
  EXPECT_EQ(fx.HateGenDim(FeatureMask::Without("history")),
            full - fx.HistoryBlockDim());
  EXPECT_EQ(fx.HateGenDim(FeatureMask::Without("topic")), full - 1);
  EXPECT_EQ(fx.HateGenDim(FeatureMask::Without("endogenous")), full - 50);
  EXPECT_EQ(fx.HateGenDim(FeatureMask::Without("exogenous")), full - 80);
  EXPECT_EQ(fx.RetweetUserDim(), fx.HistoryBlockDim() + 50 + 2);
  EXPECT_EQ(fx.TweetContentDim(), 80 + f.world.lexicon().size());
}

TEST(FeatureExtractorTest, HateGenFeatureVectorMatchesDim) {
  auto& f = SharedFixture();
  const auto& tw = f.world.tweets().front();
  for (const char* group : {"history", "topic", "endogenous", "exogenous"}) {
    const FeatureMask mask = FeatureMask::Without(group);
    const Vec x = f.extractor->HateGenFeatures(tw.author, tw.hashtag,
                                               tw.time, mask);
    EXPECT_EQ(x.size(), f.extractor->HateGenDim(mask));
  }
}

TEST(FeatureExtractorTest, HistoryBlockEncodesHatefulness) {
  auto& f = SharedFixture();
  // Average hate-ratio feature (index = tfidf_dim) should be higher for
  // hate-prone users than for ordinary users.
  const size_t ratio_idx = 80;  // history_tfidf_dim
  double prone = 0.0, ordinary = 0.0;
  size_t n_prone = 0, n_ord = 0;
  for (NodeId u = 0; u < f.world.NumUsers(); ++u) {
    const double r = f.extractor->ComputeHistoryBlock(u)[ratio_idx];
    if (f.world.users()[u].echo_community >= 0) {
      prone += r;
      ++n_prone;
    } else {
      ordinary += r;
      ++n_ord;
    }
  }
  ASSERT_GT(n_prone, 0u);
  EXPECT_GT(prone / static_cast<double>(n_prone),
            ordinary / static_cast<double>(n_ord) + 0.05);
}

TEST(FeatureExtractorTest, NewsWindowShape) {
  auto& f = SharedFixture();
  const Matrix w = f.extractor->NewsEmbeddingWindow(30.0 * 24.0);
  EXPECT_EQ(w.rows(), 20u);  // news_window
  EXPECT_EQ(w.cols(), 16u);  // doc2vec dim
  // Early time: fewer articles available.
  const Matrix early = f.extractor->NewsEmbeddingWindow(1.0);
  EXPECT_LT(early.rows(), 20u);
}

TEST(FeatureExtractorTest, NewsTfIdfAverageIsAPureFunctionOfTime) {
  // t1 and t2 share an hour but not a news average: articles land between
  // them. An average memoized per hour would hand t2 the average of
  // whichever same-hour time came first. The search calls each extractor
  // once per hour, so a per-hour memo cannot shape what it finds.
  auto& f = SharedFixture();
  const FeatureExtractor t1_source = FreshExtractor();
  const FeatureExtractor fresh = FreshExtractor();
  double t1 = -1.0, t2 = -1.0;
  Vec first, want;
  for (const auto& article : f.world.news().articles()) {
    const double hour = std::floor(article.time);
    if (article.time < 400.0 || article.time == hour || hour == t1) continue;
    t1 = hour;
    t2 = (article.time + hour + 1.0) / 2.0;
    first = t1_source.NewsTfIdfAverage(t1);
    want = fresh.NewsTfIdfAverage(t2);
    if (first != want) break;
  }
  ASSERT_NE(first, want) << "no hour with two distinct news averages";
  ASSERT_EQ(static_cast<long>(t1), static_cast<long>(t2));
  ASSERT_EQ(want.size(), 80u);

  const FeatureExtractor warm = FreshExtractor();
  EXPECT_EQ(warm.NewsTfIdfAverage(t1), first);
  EXPECT_EQ(warm.NewsTfIdfAverage(t2), want);
}

TEST(FeatureExtractorTest, RetweetUserFeaturesPeerSignals) {
  auto& f = SharedFixture();
  const auto& tw = f.world.tweets().front();
  const size_t dim = f.extractor->RetweetUserDim();
  // Direct follower: path length 1 encoded at dim-2.
  const auto followers = f.world.network().Followers(tw.author);
  if (!followers.empty()) {
    const Vec x = AssembledUserRow(*f.extractor, tw, followers[0], 1);
    EXPECT_DOUBLE_EQ(x[dim - 2], 1.0);
  }
  // Unreachable: encoded as cutoff + 1.
  const Vec y = AssembledUserRow(*f.extractor, tw, 0, graph::kUnreachable);
  EXPECT_DOUBLE_EQ(y[dim - 2],
                   static_cast<double>(kPeerPathCutoff + 1));
  // The row leads with the user's history block.
  const Vec block = f.extractor->ComputeHistoryBlock(0);
  EXPECT_TRUE(std::equal(block.begin(), block.end(), y.begin()));
}

TEST(FeatureExtractorTest, SetHistorySizeChangesHistoryBlocks) {
  // Use a private extractor: this changes its config.
  auto world = datagen::SyntheticWorld::Generate(TestConfig(), 57);
  auto fx = FeatureExtractor::Build(world, TestFeatureConfig());
  ASSERT_TRUE(fx.ok());
  FeatureExtractor extractor = std::move(fx).ValueOrDie();
  const Vec before = extractor.ComputeHistoryBlock(3);
  extractor.SetHistorySize(4);
  const Vec after = extractor.ComputeHistoryBlock(3);
  EXPECT_EQ(before.size(), after.size());
  EXPECT_NE(before, after);
}

TEST(FeatureExtractorTest, NewsAlignmentFeaturesShapeAndRange) {
  auto& f = SharedFixture();
  // A mid-horizon tweet has full news coverage.
  const datagen::Tweet* tweet = nullptr;
  for (const auto& tw : f.world.tweets()) {
    if (tw.time > 400.0) {
      tweet = &tw;
      break;
    }
  }
  ASSERT_NE(tweet, nullptr);
  const Vec align = f.extractor->NewsAlignmentFeatures(*tweet, 20);
  ASSERT_EQ(align.size(), FeatureExtractor::kNewsAlignmentDim);
  EXPECT_GE(align[0], -1.0);
  EXPECT_LE(align[0], 1.0);
  EXPECT_GE(align[1], -1.0);
  EXPECT_LE(align[1], 1.0);
  EXPECT_GT(align[2], 0.0);  // 24h volume ratio
}

// ------------------------------------------------------------ HateGenTask --

TEST(HateGenTaskTest, BuildsImbalancedGoldTestSplit) {
  auto& f = SharedFixture();
  HateGenTaskOptions opts;
  opts.min_news = 20;
  auto task_result = BuildHateGenTask(*f.extractor, opts);
  ASSERT_TRUE(task_result.ok()) << task_result.status().ToString();
  const HateGenTask& task = task_result.ValueOrDie();
  EXPECT_EQ(task.train.NumFeatures(), f.extractor->HateGenDim());
  EXPECT_GT(task.train.NumRows(), task.test.NumRows());
  // Class imbalance preserved (a few percent positives).
  const double pos_rate = static_cast<double>(task.train.NumPositives()) /
                          static_cast<double>(task.train.NumRows());
  EXPECT_LT(pos_rate, 0.15);
  EXPECT_GT(pos_rate, 0.005);
}

TEST(HateGenTaskTest, PipelineVariantsRun) {
  auto& f = SharedFixture();
  HateGenTaskOptions opts;
  opts.min_news = 20;
  auto task_result = BuildHateGenTask(*f.extractor, opts);
  ASSERT_TRUE(task_result.ok());
  const HateGenTask& task = task_result.ValueOrDie();
  for (ProcVariant proc :
       {ProcVariant::kNone, ProcVariant::kDownsample,
        ProcVariant::kUpDownsample, ProcVariant::kPca, ProcVariant::kTopK}) {
    ml::DecisionTreeOptions topts;
    topts.max_depth = 5;
    ml::DecisionTree tree(topts);
    auto result = RunHateGenPipeline(task, &tree, proc, 7);
    ASSERT_TRUE(result.ok()) << ProcVariantName(proc);
    const EvalResult& r = result.ValueOrDie();
    EXPECT_GE(r.macro_f1, 0.0);
    EXPECT_LE(r.macro_f1, 1.0);
    EXPECT_GE(r.auc, 0.0);
    EXPECT_LE(r.auc, 1.0);
  }
}

TEST(HateGenTaskTest, DownsampledTreeBeatsChance) {
  auto& f = SharedFixture();
  HateGenTaskOptions opts;
  opts.min_news = 20;
  auto task_result = BuildHateGenTask(*f.extractor, opts);
  ASSERT_TRUE(task_result.ok());
  ml::DecisionTreeOptions topts;
  topts.max_depth = 5;
  ml::DecisionTree tree(topts);
  auto result = RunHateGenPipeline(task_result.ValueOrDie(), &tree,
                                   ProcVariant::kDownsample, 7);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result.ValueOrDie().auc, 0.55);
}

TEST(HateGenTaskTest, RowsDoNotDependOnEarlierCallsOnTheExtractor) {
  // A 4-thread retweet-task build reads the same extractor first; the
  // hate-gen matrices must equal those of an extractor nothing has read.
  HateGenTaskOptions opts;
  opts.min_news = 20;
  const FeatureExtractor fresh = FreshExtractor();
  auto want = BuildHateGenTask(fresh, opts);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  const FeatureExtractor used = FreshExtractor();
  par::SetNumThreads(4);
  ASSERT_TRUE(BuildRetweetTask(used, TestRetweetOptions()).ok());
  auto got = BuildHateGenTask(used, opts);
  par::SetNumThreads(par::DefaultNumThreads());
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(BitEqual(got.ValueOrDie().train.X, want.ValueOrDie().train.X));
  EXPECT_TRUE(BitEqual(got.ValueOrDie().test.X, want.ValueOrDie().test.X));
}

TEST(HateGenTaskTest, ModelZooHasSixEntries) {
  const auto zoo = MakeHateGenModelZoo();
  EXPECT_EQ(zoo.size(), 6u);
}

// ------------------------------------------------------------ RetweetTask --

TEST(RetweetTaskTest, BuildsConsistentCandidates) {
  auto& f = SharedFixture();
  auto task_result = BuildRetweetTask(*f.extractor, TestRetweetOptions());
  ASSERT_TRUE(task_result.ok()) << task_result.status().ToString();
  const RetweetTask& task = task_result.ValueOrDie();
  EXPECT_GT(task.tweets.size(), 20u);
  EXPECT_FALSE(task.train.empty());
  EXPECT_FALSE(task.test.empty());
  EXPECT_EQ(task.NumIntervals(), 7u);

  for (const auto& cand : task.train) {
    EXPECT_LT(cand.tweet_pos, task.tweets.size());
    EXPECT_EQ(cand.user_features.size(), task.user_dim);
    EXPECT_EQ(cand.interval_labels.size(), task.NumIntervals());
    int sum = 0;
    for (int l : cand.interval_labels) sum += l;
    EXPECT_EQ(sum, cand.label);  // exactly one interval iff positive
  }
  // Each tweet group contains at least one positive and one negative.
  for (const auto* bucket : {&task.train, &task.test}) {
    for (size_t i = 0; i < bucket->size();) {
      size_t j = i + 1;
      int pos = (*bucket)[i].label;
      while (j < bucket->size() &&
             (*bucket)[j].tweet_pos == (*bucket)[i].tweet_pos) {
        pos += (*bucket)[j].label;
        ++j;
      }
      EXPECT_GT(pos, 0);
      i = j;
    }
  }
}

TEST(RetweetTaskTest, RankingQueriesFilterByHate) {
  auto& f = SharedFixture();
  auto task_result = BuildRetweetTask(*f.extractor, TestRetweetOptions());
  ASSERT_TRUE(task_result.ok());
  const RetweetTask& task = task_result.ValueOrDie();
  Vec scores(task.test.size(), 0.5);
  const auto all = MakeRankingQueries(task, task.test, scores, -1);
  const auto hate = MakeRankingQueries(task, task.test, scores, 1);
  const auto nonhate = MakeRankingQueries(task, task.test, scores, 0);
  EXPECT_EQ(all.size(), hate.size() + nonhate.size());
}

TEST(RetweetTaskTest, EvaluateBinaryPerfectScores) {
  auto& f = SharedFixture();
  auto task_result = BuildRetweetTask(*f.extractor, TestRetweetOptions());
  ASSERT_TRUE(task_result.ok());
  const RetweetTask& task = task_result.ValueOrDie();
  Vec perfect(task.test.size());
  for (size_t i = 0; i < task.test.size(); ++i) {
    perfect[i] = task.test[i].label == 1 ? 0.9 : 0.1;
  }
  const BinaryEval eval = EvaluateBinary(task.test, perfect);
  EXPECT_DOUBLE_EQ(eval.macro_f1, 1.0);
  EXPECT_DOUBLE_EQ(eval.auc, 1.0);
}

TEST(FeatureExtractorTest, DimsFollowFittedVocabularyNotConfig) {
  // A small history corpus has far fewer tokens with df >= 3 than the
  // configured tf-idf width, so every width must come from the fitted
  // vocabulary: a task sized from the config would overrun each row.
  datagen::WorldConfig wc;
  wc.scale = 0.03;
  wc.num_users = 400;
  auto world = datagen::SyntheticWorld::Generate(wc, 5);
  ASSERT_TRUE(hatedetect::AnnotateWorld(&world, {}).ok());
  FeatureConfig fc = TestFeatureConfig();
  fc.history_tfidf_dim = 5000;
  auto built = FeatureExtractor::Build(world, fc);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const FeatureExtractor fx = std::move(built).ValueOrDie();
  ASSERT_LT(fx.ComputeHistoryBlock(0).size(), fc.history_tfidf_dim);
  for (NodeId u = 0; u < world.NumUsers(); u += 37) {
    EXPECT_EQ(fx.ComputeHistoryBlock(u).size(), fx.HistoryBlockDim());
  }
  const auto& tw = world.tweets().front();
  EXPECT_EQ(fx.HateGenFeatures(tw.author, tw.hashtag, tw.time).size(),
            fx.HateGenDim());

  auto task_result = BuildRetweetTask(fx, TestRetweetOptions());
  ASSERT_TRUE(task_result.ok()) << task_result.status().ToString();
  const RetweetTask& task = task_result.ValueOrDie();
  for (const auto& cand : task.train) {
    ASSERT_EQ(cand.user_features.size(), task.user_dim);
  }
  RetinaOptions opts;
  opts.hidden = 8;
  opts.epochs = 2;
  Retina model(task.user_dim, task.content_dim, task.embed_dim,
               task.NumIntervals(), opts);
  ASSERT_TRUE(model.Train(task).ok());
  for (double loss : model.epoch_losses()) EXPECT_TRUE(std::isfinite(loss));
  for (double score : model.ScoreCandidates(task, task.test)) {
    EXPECT_TRUE(std::isfinite(score));
  }
}

// ---------------------------------------------------------------- RETINA --

const RetweetTask& SharedRetweetTask() {
  static const RetweetTask task = [] {
    auto& f = SharedFixture();
    auto r = BuildRetweetTask(*f.extractor, TestRetweetOptions());
    EXPECT_TRUE(r.ok());
    return std::move(r).ValueOrDie();
  }();
  return task;
}

RetinaOptions FastStaticOptions() {
  RetinaOptions opts;
  opts.hidden = 16;
  opts.epochs = 3;
  return opts;
}

TEST(RetinaTest, StaticTrainingBeatsChanceAuc) {
  const RetweetTask& task = SharedRetweetTask();
  Retina model(task.user_dim, task.content_dim, task.embed_dim,
               task.NumIntervals(), FastStaticOptions());
  ASSERT_TRUE(model.Train(task).ok());
  const Vec scores = model.ScoreCandidates(task, task.test);
  const BinaryEval eval = EvaluateBinary(task.test, scores);
  EXPECT_GT(eval.auc, 0.6);
}

TEST(RetinaTest, DynamicTrainingBeatsChanceAuc) {
  const RetweetTask& task = SharedRetweetTask();
  RetinaOptions opts = FastStaticOptions();
  opts.dynamic = true;
  opts.use_adam = false;
  opts.learning_rate = 1e-3;  // the tuned dynamic configuration
  opts.lambda = 2.5;
  Retina model(task.user_dim, task.content_dim, task.embed_dim,
               task.NumIntervals(), opts);
  ASSERT_TRUE(model.Train(task).ok());
  const Vec scores = model.ScoreCandidates(task, task.test);
  const BinaryEval eval = EvaluateBinary(task.test, scores);
  EXPECT_GT(eval.auc, 0.6);
}

TEST(RetinaTest, AblationVariantRunsWithoutAttention) {
  const RetweetTask& task = SharedRetweetTask();
  RetinaOptions opts = FastStaticOptions();
  opts.use_exogenous = false;
  Retina model(task.user_dim, task.content_dim, task.embed_dim,
               task.NumIntervals(), opts);
  ASSERT_TRUE(model.Train(task).ok());
  const Vec scores = model.ScoreCandidates(task, task.test);
  for (double s : scores) {
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
}

TEST(RetinaTest, DynamicPredictionsPerInterval) {
  const RetweetTask& task = SharedRetweetTask();
  RetinaOptions opts = FastStaticOptions();
  opts.dynamic = true;
  opts.epochs = 1;
  Retina model(task.user_dim, task.content_dim, task.embed_dim,
               task.NumIntervals(), opts);
  ASSERT_TRUE(model.Train(task).ok());
  const auto& cand = task.test.front();
  const Vec probs = model.PredictDynamic(task.tweets[cand.tweet_pos],
                                         cand.user_features);
  EXPECT_EQ(probs.size(), task.NumIntervals());
  for (double p : probs) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
  // Combined score = 1 - prod(1 - p_j).
  double none = 1.0;
  for (double p : probs) none *= 1.0 - p;
  EXPECT_NEAR(model.PredictScore(task.tweets[cand.tweet_pos],
                                 cand.user_features),
              1.0 - none, 1e-9);
}

TEST(RetinaTest, CumulativeEvaluationMonotoneAndCalibrated) {
  const RetweetTask& task = SharedRetweetTask();
  RetinaOptions opts = FastStaticOptions();
  opts.dynamic = true;
  opts.use_adam = false;
  opts.learning_rate = 1e-3;
  opts.lambda = 2.5;
  opts.epochs = 2;
  Retina model(task.user_dim, task.content_dim, task.embed_dim,
               task.NumIntervals(), opts);
  ASSERT_TRUE(model.Train(task).ok());
  const double threshold = model.CalibrateIntervalThreshold(task, task.train);
  EXPECT_GT(threshold, 0.0);
  EXPECT_LT(threshold, 1.0);
  const double cum_threshold =
      model.CalibrateCumulativeThreshold(task, task.train);
  const BinaryEval cum =
      model.EvaluateCumulative(task, task.test, cum_threshold);
  const BinaryEval per =
      model.EvaluatePerInterval(task, task.test, threshold);
  // Cumulative labels are easier to classify: the calibrated cumulative
  // macro-F1 should not be worse than the disjoint per-interval view.
  EXPECT_GE(cum.macro_f1 + 0.05, per.macro_f1);
  EXPECT_GT(cum.auc, 0.5);
}

TEST(RetinaTest, LstmAndRnnCellsTrain) {
  const RetweetTask& task = SharedRetweetTask();
  for (const auto kind :
       {nn::RecurrentKind::kLstm, nn::RecurrentKind::kSimpleRnn}) {
    RetinaOptions opts = FastStaticOptions();
    opts.dynamic = true;
    opts.epochs = 1;
    opts.recurrent = kind;
    Retina model(task.user_dim, task.content_dim, task.embed_dim,
                 task.NumIntervals(), opts);
    ASSERT_TRUE(model.Train(task).ok()) << nn::RecurrentKindName(kind);
    const Vec scores = model.ScoreCandidates(task, task.test);
    for (double s : scores) {
      ASSERT_GE(s, 0.0);
      ASSERT_LE(s, 1.0);
    }
  }
}

TEST(RetinaTest, DeterministicGivenSeed) {
  const RetweetTask& task = SharedRetweetTask();
  RetinaOptions opts = FastStaticOptions();
  opts.epochs = 1;
  Retina m1(task.user_dim, task.content_dim, task.embed_dim,
            task.NumIntervals(), opts);
  Retina m2(task.user_dim, task.content_dim, task.embed_dim,
            task.NumIntervals(), opts);
  ASSERT_TRUE(m1.Train(task).ok());
  ASSERT_TRUE(m2.Train(task).ok());
  const Vec s1 = m1.ScoreCandidates(task, task.test);
  const Vec s2 = m2.ScoreCandidates(task, task.test);
  EXPECT_EQ(s1, s2);
}

// One tweet group of `n` candidates as the whole train split, so one
// training epoch is one optimizer step.
RetweetTask OneGroupTask(size_t n, uint64_t seed) {
  RetweetTask task;
  task.user_dim = 6;
  task.content_dim = 5;
  task.embed_dim = 8;
  task.interval_edges = {0.0, 1.0, 8.0, 24.0};
  Rng rng(seed);
  TweetContext ctx;
  ctx.content = Vec(task.content_dim);
  for (double& v : ctx.content) v = rng.Normal();
  ctx.embedding = Vec(task.embed_dim);
  for (double& v : ctx.embedding) v = rng.Normal();
  ctx.news_window = Matrix(4, task.embed_dim);
  for (double& v : ctx.news_window.data()) v = rng.Normal();
  task.tweets.push_back(std::move(ctx));
  for (size_t k = 0; k < n; ++k) {
    RetweetCandidate cand;
    cand.tweet_pos = 0;
    cand.user = static_cast<datagen::NodeId>(k);
    cand.label = (k % 3 == 0) ? 1 : 0;
    cand.interval_labels.assign(task.NumIntervals(), 0);
    if (cand.label == 1) cand.interval_labels[k % task.NumIntervals()] = 1;
    cand.user_features = Vec(task.user_dim);
    for (double& v : cand.user_features) v = rng.Normal();
    task.train.push_back(std::move(cand));
  }
  return task;
}

// Train's objective for the one-group task: the mean over candidates of
// the weighted BCE (summed over intervals for the dynamic head), with the
// positive weight Train derives from the same labels.
double GroupLoss(const Retina& model, const RetweetTask& task,
                 double lambda) {
  const bool dynamic = model.options().dynamic;
  size_t total = 0, positives = 0;
  for (const RetweetCandidate& cand : task.train) {
    if (dynamic) {
      total += cand.interval_labels.size();
      for (int l : cand.interval_labels) positives += (l == 1);
    } else {
      ++total;
      positives += (cand.label == 1);
    }
  }
  nn::WeightedBce bce;
  bce.pos_weight = nn::PositiveClassWeight(total, positives, lambda);
  double sum = 0.0;
  for (const RetweetCandidate& cand : task.train) {
    const Vec probs = model.PredictDynamic(task.tweets[0], cand.user_features);
    if (!dynamic) {
      sum += bce.Loss(probs[0], cand.label);
      continue;
    }
    for (size_t j = 0; j < probs.size(); ++j) {
      sum += bce.Loss(probs[j], cand.interval_labels[j]);
    }
  }
  return sum / static_cast<double>(task.train.size());
}

// With SGD, the first step moves each weight by exactly -lr * g (the
// momentum buffer starts at zero), so one epoch over one group exposes the
// step's gradient. Compares it, at sampled entries of each named tensor,
// with a central difference of GroupLoss on checkpoints where only that
// entry is perturbed.
void ExpectStepGradientMatchesFiniteDifference(
    RetinaOptions opts, const std::vector<std::string>& tensors) {
  // 20 candidates: three summation chunks of the step.
  const RetweetTask task = OneGroupTask(20, 17);
  opts.use_adam = false;
  opts.learning_rate = 1e-2;
  opts.epochs = 1;
  Retina model(task.user_dim, task.content_dim, task.embed_dim,
               task.NumIntervals(), opts);
  io::Checkpoint before;
  ASSERT_TRUE(model.Save(&before).ok());
  ASSERT_TRUE(model.Train(task).ok());
  io::Checkpoint after;
  ASSERT_TRUE(model.Save(&after).ok());

  constexpr size_t kSamples = 6;
  constexpr double kStep = 1e-6;
  for (const std::string& tensor : tensors) {
    const std::string name = "retina/params/" + tensor;
    Matrix w0, w1;
    ASSERT_TRUE(before.GetTensor(name, &w0).ok()) << name;
    ASSERT_TRUE(after.GetTensor(name, &w1).ok()) << name;
    const auto loss_with = [&](size_t e, double delta) {
      io::Checkpoint perturbed = before;
      Matrix w = w0;
      w.data()[e] += delta;
      perturbed.PutTensor(name, w);
      auto loaded = Retina::Load(perturbed);
      EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
      return GroupLoss(*loaded.ValueOrDie(), task, opts.lambda);
    };
    double largest = 0.0;
    const size_t samples = std::min(kSamples, w0.size());
    for (size_t k = 0; k < samples; ++k) {
      const size_t e = k * w0.size() / samples;
      const double step_grad =
          (w0.data()[e] - w1.data()[e]) / opts.learning_rate;
      const double numeric =
          (loss_with(e, kStep) - loss_with(e, -kStep)) / (2.0 * kStep);
      EXPECT_NEAR(step_grad, numeric, 1e-7 + 1e-4 * std::abs(numeric))
          << name << " entry " << e;
      largest = std::max(largest, std::abs(step_grad));
    }
    EXPECT_GT(largest, 0.0) << name << ": every sampled gradient is zero";
  }
}

TEST(RetinaTest, StaticStepGradientMatchesFiniteDifference) {
  RetinaOptions opts;
  opts.hidden = 8;
  ExpectStepGradientMatchesFiniteDifference(
      opts, {"ff1/W", "ff1/b", "head/W", "head/b", "attention/Wq",
             "attention/Wk", "attention/Wv"});
}

// Every recurrent cell of the dynamic head, with all of its tensors.
TEST(RetinaTest, DynamicStepGradientMatchesFiniteDifference) {
  const std::vector<std::pair<nn::RecurrentKind, std::vector<std::string>>>
      cells = {
          {nn::RecurrentKind::kGru,
           {"rnn/Wz", "rnn/Uz", "rnn/bz", "rnn/Wr", "rnn/Ur", "rnn/br",
            "rnn/Wh", "rnn/Uh", "rnn/bh"}},
          {nn::RecurrentKind::kLstm,
           {"rnn/Wi", "rnn/Ui", "rnn/bi", "rnn/Wf", "rnn/Uf", "rnn/bf",
            "rnn/Wo", "rnn/Uo", "rnn/bo", "rnn/Wc", "rnn/Uc", "rnn/bc"}},
          {nn::RecurrentKind::kSimpleRnn, {"rnn/W", "rnn/U", "rnn/b"}},
      };
  for (const auto& [kind, rnn_tensors] : cells) {
    SCOPED_TRACE(nn::RecurrentKindName(kind));
    RetinaOptions opts;
    opts.hidden = 8;
    opts.dynamic = true;
    opts.lambda = 2.5;
    opts.recurrent = kind;
    std::vector<std::string> tensors = {"ff1/W", "ff1/b", "head/W", "head/b",
                                        "attention/Wk"};
    tensors.insert(tensors.end(), rnn_tensors.begin(), rnn_tensors.end());
    ExpectStepGradientMatchesFiniteDifference(opts, tensors);
  }
}

TEST(RetinaTest, EmptyTrainFails) {
  RetweetTask task;
  task.user_dim = 4;
  task.content_dim = 4;
  task.embed_dim = 4;
  task.interval_edges = {0.0, 1.0};
  Retina model(4, 4, 4, 1, FastStaticOptions());
  EXPECT_FALSE(model.Train(task).ok());
}

}  // namespace
}  // namespace retina::core
