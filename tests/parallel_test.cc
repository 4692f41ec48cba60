// Tests for the retina::par execution layer: chunking contract, exception
// propagation, nested use, RNG stream derivation, and the determinism
// regressions pinning bit-identical training, task features, world
// generation and the SIR / General Threshold baselines at any thread
// count.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/feature_extractor.h"
#include "core/hategen_task.h"
#include "core/retina.h"
#include "core/retweet_task.h"
#include "datagen/serialize.h"
#include "datagen/world.h"
#include "diffusion/sir.h"
#include "diffusion/threshold.h"
#include "io/checkpoint.h"
#include "ml/random_forest.h"
#include "nn/recurrent.h"

namespace retina {
namespace {

using par::ChunkRange;
using par::MakeChunks;
using par::ParallelFor;
using par::ParallelForChunks;
using par::ParallelReduce;
using par::ThreadPool;

// ------------------------------------------------------------- Chunking --

TEST(MakeChunksTest, CoversRangeContiguouslyInOrder) {
  for (size_t n : {1u, 7u, 31u, 32u, 33u, 100u, 1000u}) {
    for (size_t grain : {1u, 4u, 16u}) {
      const auto chunks = MakeChunks(n, grain);
      ASSERT_FALSE(chunks.empty());
      size_t next = 0;
      for (size_t c = 0; c < chunks.size(); ++c) {
        EXPECT_EQ(chunks[c].index, c);
        EXPECT_EQ(chunks[c].begin, next);
        EXPECT_GT(chunks[c].end, chunks[c].begin);
        next = chunks[c].end;
      }
      EXPECT_EQ(next, n);
      EXPECT_LE(chunks.size(), par::kMaxChunksPerLoop);
    }
  }
}

TEST(MakeChunksTest, EmptyRangeYieldsNoChunks) {
  EXPECT_TRUE(MakeChunks(0, 1).empty());
  EXPECT_TRUE(MakeChunks(0, 16).empty());
}

TEST(MakeChunksTest, RespectsGrain) {
  const auto chunks = MakeChunks(100, 25);
  ASSERT_EQ(chunks.size(), 4u);
  for (const auto& c : chunks) EXPECT_EQ(c.size(), 25u);
}

TEST(MakeChunksTest, LayoutIndependentOfThreadCount) {
  // The layout must be a pure function of (n, grain): recomputing it under
  // different global pool sizes gives identical chunks.
  par::SetNumThreads(1);
  const auto a = MakeChunks(777, 3);
  par::SetNumThreads(4);
  const auto b = MakeChunks(777, 3);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].begin, b[i].begin);
    EXPECT_EQ(a[i].end, b[i].end);
  }
}

// ---------------------------------------------------------- ParallelFor --

TEST(ParallelForTest, EmptyRangeRunsNothing) {
  std::atomic<int> calls{0};
  ParallelFor(0, 1, [&](size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelForTest, SingleElementRunsInline) {
  std::atomic<int> calls{0};
  ParallelFor(1, 1, [&](size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls.load(), 1);
}

TEST(ParallelForTest, VisitsEveryIndexExactlyOnce) {
  par::SetNumThreads(4);
  const size_t n = 1000;
  std::vector<int> hits(n, 0);
  ParallelFor(n, 1, [&](size_t i) { ++hits[i]; });
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i], 1) << i;
}

TEST(ParallelForTest, PropagatesException) {
  par::SetNumThreads(4);
  EXPECT_THROW(
      ParallelFor(100, 1,
                  [&](size_t i) {
                    if (i == 57) throw std::runtime_error("boom");
                  }),
      std::runtime_error);
}

TEST(ParallelForChunksTest, RethrowsLowestChunkException) {
  par::SetNumThreads(4);
  // Every chunk throws; the pool must surface the lowest chunk's error.
  try {
    ParallelForChunks(128, 4, [&](const ChunkRange& chunk) {
      throw std::runtime_error("chunk " + std::to_string(chunk.index));
    });
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "chunk 0");
  }
}

TEST(ParallelForTest, NestedUseRunsInlineWithoutDeadlock) {
  par::SetNumThreads(4);
  std::vector<double> out(8, 0.0);
  ParallelFor(out.size(), 1, [&](size_t i) {
    EXPECT_TRUE(ThreadPool::InParallelRegion());
    // Nested loop executes serially on this thread.
    double sum = 0.0;
    ParallelFor(100, 1, [&](size_t j) { sum += static_cast<double>(j); });
    out[i] = sum;
  });
  for (double v : out) EXPECT_DOUBLE_EQ(v, 4950.0);
}

TEST(ParallelReduceTest, OrderedFoldIsBitIdenticalAcrossThreadCounts) {
  // Sum of values spanning many magnitudes: FP addition is not
  // associative, so equality here demonstrates the ordered reduction.
  const size_t n = 10000;
  std::vector<double> xs(n);
  Rng rng(7);
  for (double& x : xs) x = rng.Normal() * std::exp(rng.Uniform(-20.0, 20.0));
  auto sum_with = [&](size_t threads) {
    par::SetNumThreads(threads);
    return ParallelReduce<double>(
        n, 1, 0.0,
        [&](const ChunkRange& chunk) {
          double s = 0.0;
          for (size_t i = chunk.begin; i < chunk.end; ++i) s += xs[i];
          return s;
        },
        [](double a, double b) { return a + b; });
  };
  const double s1 = sum_with(1);
  const double s4 = sum_with(4);
  const double s8 = sum_with(8);
  EXPECT_EQ(s1, s4);
  EXPECT_EQ(s1, s8);
}

// -------------------------------------------------------------- Pool -----

TEST(ThreadPoolTest, EnvOverrideControlsDefault) {
  ASSERT_EQ(setenv("RETINA_NUM_THREADS", "3", 1), 0);
  EXPECT_EQ(par::DefaultNumThreads(), 3u);
  ASSERT_EQ(setenv("RETINA_NUM_THREADS", "not-a-number", 1), 0);
  EXPECT_GE(par::DefaultNumThreads(), 1u);
  ASSERT_EQ(unsetenv("RETINA_NUM_THREADS"), 0);
  EXPECT_GE(par::DefaultNumThreads(), 1u);
}

TEST(ThreadPoolTest, ExplicitPoolRunsAllTasks) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.num_threads(), 3u);
  std::vector<int> hits(500, 0);
  pool.Run(hits.size(), [&](size_t i) { ++hits[i]; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

// ---------------------------------------------------------- Rng streams --

TEST(RngStreamTest, StreamMatchesSplitSequence) {
  // Stream(seed, i) must be exactly the stream the (i+1)-th Split() of
  // Rng(seed) yields — the contract parallel loops rely on to reproduce
  // serial split-based seeding.
  Rng parent(123);
  for (uint64_t i = 0; i < 5; ++i) {
    Rng split = parent.Split();
    Rng stream = Rng::Stream(123, i);
    for (int k = 0; k < 16; ++k) EXPECT_EQ(split.NextU64(), stream.NextU64());
  }
}

TEST(RngStreamTest, DistinctStreamsDiffer) {
  Rng a = Rng::Stream(9, 0);
  Rng b = Rng::Stream(9, 1);
  bool any_diff = false;
  for (int k = 0; k < 8; ++k) any_diff |= (a.NextU64() != b.NextU64());
  EXPECT_TRUE(any_diff);
}

// ------------------------------------- Determinism regression: training --

// One tweet per entry of `group_sizes`, with that many candidates; the last
// group is the test split. The inputs are 256 columns wide so that, at 32
// hidden units, a training step's candidate chunks, its gradient rows and
// the optimizer's update each span several pool tasks.
core::RetweetTask MakeToyTask(const std::vector<size_t>& group_sizes,
                              uint64_t seed) {
  core::RetweetTask task;
  task.user_dim = 200;
  task.content_dim = 56;
  task.embed_dim = 8;
  task.interval_edges = {0.0, 1.0, 8.0, 24.0};
  Rng rng(seed);
  const size_t n_intervals = task.NumIntervals();
  for (size_t t = 0; t < group_sizes.size(); ++t) {
    core::TweetContext ctx;
    ctx.tweet_id = t;
    ctx.content = Vec(task.content_dim);
    for (double& v : ctx.content) v = rng.Normal();
    ctx.embedding = Vec(task.embed_dim);
    for (double& v : ctx.embedding) v = rng.Normal();
    ctx.news_window = Matrix(4, task.embed_dim);
    for (size_t r = 0; r < 4; ++r) {
      for (size_t c = 0; c < task.embed_dim; ++c) {
        ctx.news_window(r, c) = rng.Normal();
      }
    }
    task.tweets.push_back(std::move(ctx));
    for (size_t k = 0; k < group_sizes[t]; ++k) {
      core::RetweetCandidate cand;
      cand.tweet_pos = t;
      cand.user = static_cast<datagen::NodeId>(k);
      cand.label = (k % 3 == 0) ? 1 : 0;
      cand.interval_labels.assign(n_intervals, 0);
      if (cand.label == 1) cand.interval_labels[k % n_intervals] = 1;
      cand.user_features = Vec(task.user_dim);
      for (double& v : cand.user_features) v = rng.Normal();
      (t + 1 == group_sizes.size() ? task.test : task.train)
          .push_back(std::move(cand));
    }
  }
  return task;
}

// What one training run leaves behind.
struct Trained {
  std::vector<double> losses;
  Vec scores;              // the test split's
  std::string checkpoint;  // Save's bytes: parameters and optimizer state
};

Trained TrainAndScore(const core::RetweetTask& task, bool dynamic,
                      nn::RecurrentKind recurrent, bool use_exogenous,
                      size_t threads) {
  par::SetNumThreads(threads);
  core::RetinaOptions opts;
  opts.hidden = 32;
  opts.epochs = 3;
  opts.dynamic = dynamic;
  opts.use_exogenous = use_exogenous;
  opts.recurrent = recurrent;
  opts.seed = 5;
  core::Retina model(task.user_dim, task.content_dim, task.embed_dim,
                     task.NumIntervals(), opts);
  EXPECT_TRUE(model.Train(task).ok());
  io::Checkpoint ckpt;
  EXPECT_TRUE(model.Save(&ckpt).ok());
  return {model.epoch_losses(), model.ScoreCandidates(task, task.test),
          ckpt.SerializeToBytes()};
}

// Trains at 1, 2, 4 and 8 threads, with attention on and off, and expects
// the same losses, test scores and checkpoint bytes every time.
void ExpectTrainingBitIdenticalAcrossThreadCounts(
    const core::RetweetTask& task, bool dynamic,
    nn::RecurrentKind recurrent = nn::RecurrentKind::kGru) {
  for (const bool use_exogenous : {true, false}) {
    const Trained ref =
        TrainAndScore(task, dynamic, recurrent, use_exogenous, 1);
    for (const size_t threads : {2u, 4u, 8u}) {
      SCOPED_TRACE(testing::Message() << "use_exogenous=" << use_exogenous
                                      << " threads=" << threads);
      const Trained got =
          TrainAndScore(task, dynamic, recurrent, use_exogenous, threads);
      ASSERT_EQ(ref.losses.size(), got.losses.size());
      for (size_t e = 0; e < ref.losses.size(); ++e) {
        EXPECT_EQ(ref.losses[e], got.losses[e]) << "epoch " << e;
      }
      ASSERT_EQ(ref.scores.size(), got.scores.size());
      for (size_t i = 0; i < ref.scores.size(); ++i) {
        EXPECT_EQ(ref.scores[i], got.scores[i]) << "candidate " << i;
      }
      EXPECT_TRUE(ref.checkpoint == got.checkpoint)
          << "checkpoint bytes differ";
    }
  }
}

// Group sizes cover several chunks (20), a single chunk (6) and a size
// that is not a multiple of the 8-candidate chunk (13).
TEST(DeterminismTest, RetinaStaticTrainingBitIdenticalAcrossThreadCounts) {
  ExpectTrainingBitIdenticalAcrossThreadCounts(
      MakeToyTask({20, 6, 13, 20, 20, 20}, 11), /*dynamic=*/false);
}

TEST(DeterminismTest, RetinaDynamicTrainingBitIdenticalAcrossThreadCounts) {
  const core::RetweetTask task = MakeToyTask({16, 5, 11, 16, 16}, 13);
  for (const nn::RecurrentKind kind :
       {nn::RecurrentKind::kGru, nn::RecurrentKind::kLstm,
        nn::RecurrentKind::kSimpleRnn}) {
    SCOPED_TRACE(nn::RecurrentKindName(kind));
    ExpectTrainingBitIdenticalAcrossThreadCounts(task, /*dynamic=*/true,
                                                 kind);
  }
}

TEST(DeterminismTest, RandomForestBitIdenticalAcrossThreadCounts) {
  Rng rng(3);
  const size_t n = 200, d = 6;
  Matrix X(n, d);
  std::vector<int> y(n);
  for (size_t i = 0; i < n; ++i) {
    double s = 0.0;
    for (size_t j = 0; j < d; ++j) {
      X(i, j) = rng.Normal();
      s += X(i, j);
    }
    y[i] = s > 0.0 ? 1 : 0;
  }
  auto fit_and_predict = [&](size_t threads) {
    par::SetNumThreads(threads);
    ml::RandomForestOptions opts;
    opts.n_estimators = 11;
    opts.seed = 17;
    ml::RandomForest forest(opts);
    EXPECT_TRUE(forest.Fit(X, y).ok());
    Vec preds(n);
    for (size_t i = 0; i < n; ++i) preds[i] = forest.PredictProba(X.RowVec(i));
    return preds;
  };
  const Vec p1 = fit_and_predict(1);
  const Vec p4 = fit_and_predict(4);
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(p1[i], p4[i]) << i;
}

// ------------------------- Determinism regression: feature extraction --

// Bit patterns of every feature row the two task builders read from `fx`,
// built at `threads` threads: each BuildRetweetTask candidate row (train,
// then test), then both BuildHateGenTask matrices.
std::vector<uint64_t> TaskBits(const core::FeatureExtractor& fx,
                               size_t threads) {
  par::SetNumThreads(threads);
  std::vector<uint64_t> bits;
  const auto push = [&bits](const double* x, size_t n) {
    const size_t at = bits.size();
    bits.resize(at + n);
    std::memcpy(bits.data() + at, x, n * sizeof(double));
  };
  core::RetweetTaskOptions retweet_opts;
  retweet_opts.min_news = 20;
  auto retweet = core::BuildRetweetTask(fx, retweet_opts);
  EXPECT_TRUE(retweet.ok()) << retweet.status().ToString();
  if (!retweet.ok()) return bits;
  for (const auto* bucket :
       {&retweet.ValueOrDie().train, &retweet.ValueOrDie().test}) {
    for (const core::RetweetCandidate& cand : *bucket) {
      push(cand.user_features.data(), cand.user_features.size());
    }
  }
  core::HateGenTaskOptions hategen_opts;
  hategen_opts.min_news = 20;
  auto hategen = core::BuildHateGenTask(fx, hategen_opts);
  EXPECT_TRUE(hategen.ok()) << hategen.status().ToString();
  if (!hategen.ok()) return bits;
  for (const Matrix* x :
       {&hategen.ValueOrDie().train.X, &hategen.ValueOrDie().test.X}) {
    push(x->data().data(), x->data().size());
  }
  return bits;
}

TEST(DeterminismTest, TaskFeaturesBitIdenticalAcrossThreadCounts) {
  datagen::WorldConfig wc;
  wc.scale = 0.03;
  wc.num_users = 300;
  wc.history_length = 12;
  const auto world = datagen::SyntheticWorld::Generate(wc, 9);
  core::FeatureConfig fc;
  fc.history_size = 10;
  fc.history_tfidf_dim = 60;
  fc.news_tfidf_dim = 40;
  fc.tweet_tfidf_dim = 40;
  fc.doc2vec_dim = 12;
  fc.doc2vec_epochs = 2;

  const auto build = [&](size_t threads) {
    par::SetNumThreads(threads);
    auto fx = core::FeatureExtractor::Build(world, fc);
    EXPECT_TRUE(fx.ok()) << fx.status().ToString();
    return std::move(fx).ValueOrDie();
  };
  core::FeatureExtractor built1 = build(1);
  core::FeatureExtractor built4 = build(4);
  const std::vector<uint64_t> reference = TaskBits(built1, 1);
  ASSERT_FALSE(reference.empty());
  EXPECT_TRUE(TaskBits(built4, 4) == reference) << "Build at 4 threads";

  io::Checkpoint ckpt;
  built1.SaveTo(&ckpt, "features/");
  for (const size_t threads : {1, 4}) {
    par::SetNumThreads(threads);
    auto restored = core::FeatureExtractor::Restore(world, ckpt, "features/");
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    EXPECT_TRUE(TaskBits(restored.ValueOrDie(), threads) == reference)
        << "Restore at " << threads << " threads";
  }

  built1.SetHistorySize(4);
  built4.SetHistorySize(4);
  const std::vector<uint64_t> shortened = TaskBits(built1, 1);
  EXPECT_TRUE(shortened != reference);
  EXPECT_TRUE(TaskBits(built4, 4) == shortened) << "SetHistorySize at 4";
  built4.SetHistorySize(fc.history_size);
  EXPECT_TRUE(TaskBits(built4, 4) == reference) << "SetHistorySize back";
  par::SetNumThreads(par::DefaultNumThreads());
}

// --------------------------- Determinism regression: world generation --

// Every file ExportWorldCsv writes for the world generated at `threads`
// threads, by name. Doubles are written with %.17g, so equal text means
// equal bits.
std::map<std::string, std::string> GeneratedWorldFiles(size_t threads) {
  par::SetNumThreads(threads);
  datagen::WorldConfig wc;
  wc.scale = 0.03;
  wc.num_users = 300;
  wc.history_length = 12;
  const auto world = datagen::SyntheticWorld::Generate(wc, 9);
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("retina_parallel_world_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  EXPECT_TRUE(datagen::ExportWorldCsv(world, dir.string()).ok());
  std::map<std::string, std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::ifstream in(entry.path(), std::ios::binary);
    files[entry.path().filename().string()] =
        std::string(std::istreambuf_iterator<char>(in), {});
  }
  std::filesystem::remove_all(dir);
  return files;
}

TEST(DeterminismTest, WorldGenerateBitIdenticalAcrossThreadCounts) {
  const auto reference = GeneratedWorldFiles(1);
  ASSERT_FALSE(reference.empty());
  for (const size_t threads : {2u, 4u, 8u}) {
    const auto got = GeneratedWorldFiles(threads);
    ASSERT_EQ(got.size(), reference.size()) << "threads=" << threads;
    for (const auto& [name, bytes] : reference) {
      const auto it = got.find(name);
      ASSERT_NE(it, got.end()) << name;
      EXPECT_TRUE(it->second == bytes)
          << name << " differs at " << threads << " threads";
    }
  }
  par::SetNumThreads(par::DefaultNumThreads());
}

// ------------------------ Determinism regression: cascade baselines --

// A small world with its retweet task, built once at the default thread
// count.
struct CascadeFixture {
  datagen::SyntheticWorld world;
  std::unique_ptr<core::FeatureExtractor> extractor;
  core::RetweetTask task;
};

const CascadeFixture& SharedCascadeFixture() {
  static const CascadeFixture* fixture = [] {
    datagen::WorldConfig wc;
    wc.scale = 0.03;
    wc.num_users = 300;
    wc.history_length = 12;
    auto* f = new CascadeFixture{datagen::SyntheticWorld::Generate(wc, 21),
                                 nullptr, {}};
    core::FeatureConfig fc;
    fc.history_size = 8;
    fc.history_tfidf_dim = 40;
    fc.news_tfidf_dim = 40;
    fc.tweet_tfidf_dim = 40;
    fc.doc2vec_dim = 12;
    fc.doc2vec_epochs = 2;
    auto fx = core::FeatureExtractor::Build(f->world, fc);
    EXPECT_TRUE(fx.ok()) << fx.status().ToString();
    f->extractor = std::make_unique<core::FeatureExtractor>(
        std::move(fx).ValueOrDie());
    core::RetweetTaskOptions opts;
    opts.min_news = 20;
    auto task = core::BuildRetweetTask(*f->extractor, opts);
    EXPECT_TRUE(task.ok()) << task.status().ToString();
    f->task = std::move(task).ValueOrDie();
    return f;
  }();
  return *fixture;
}

// What one baseline fit leaves behind.
struct FittedBaseline {
  Vec rates;   // the fitted rates
  Vec scores;  // ScoreCandidates over the test split
  double full_population_f1 = 0.0;
};

// Runs `fit` at 1, 2, 4 and 8 threads and expects the same rates, scores
// and full-population macro-F1 every time.
void ExpectBaselineBitIdenticalAcrossThreadCounts(
    const std::function<FittedBaseline()>& fit) {
  par::SetNumThreads(1);
  const FittedBaseline ref = fit();
  ASSERT_FALSE(ref.scores.empty());
  for (const size_t threads : {2u, 4u, 8u}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    par::SetNumThreads(threads);
    const FittedBaseline got = fit();
    ASSERT_EQ(got.rates.size(), ref.rates.size());
    for (size_t r = 0; r < ref.rates.size(); ++r) {
      EXPECT_EQ(got.rates[r], ref.rates[r]) << "rate " << r;
    }
    ASSERT_EQ(got.scores.size(), ref.scores.size());
    for (size_t i = 0; i < ref.scores.size(); ++i) {
      EXPECT_EQ(got.scores[i], ref.scores[i]) << "candidate " << i;
    }
    EXPECT_EQ(got.full_population_f1, ref.full_population_f1);
  }
  par::SetNumThreads(par::DefaultNumThreads());
}

TEST(DeterminismTest, SirBitIdenticalAcrossThreadCounts) {
  const CascadeFixture& f = SharedCascadeFixture();
  ExpectBaselineBitIdenticalAcrossThreadCounts([&] {
    diffusion::SirOptions opts;
    opts.fit_cascades = 12;
    diffusion::SirModel sir(&f.world, opts);
    EXPECT_TRUE(sir.Fit(f.task).ok());
    return FittedBaseline{{sir.beta(), sir.gamma()},
                          sir.ScoreCandidates(f.task, f.task.test),
                          sir.FullPopulationMacroF1(f.task)};
  });
}

TEST(DeterminismTest, ThresholdBitIdenticalAcrossThreadCounts) {
  const CascadeFixture& f = SharedCascadeFixture();
  ExpectBaselineBitIdenticalAcrossThreadCounts([&] {
    diffusion::ThresholdOptions opts;
    opts.fit_cascades = 12;
    diffusion::ThresholdModel threshold(&f.world, opts);
    EXPECT_TRUE(threshold.Fit(f.task).ok());
    return FittedBaseline{{threshold.influence()},
                          threshold.ScoreCandidates(f.task, f.task.test),
                          threshold.FullPopulationMacroF1(f.task)};
  });
}

}  // namespace
}  // namespace retina
