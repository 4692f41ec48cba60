// Tests for the batched sparse scoring path: SparseVec kernels, sparse
// tf-idf equivalence, the batched dense forward, the LRU cache, RETINA's
// raw-row batched pass against its per-candidate forward, and the
// ScoringEngine's bit-identity to per-candidate scoring in both static and
// dynamic modes.

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include <filesystem>

#include "common/arena.h"
#include "common/lru_cache.h"
#include "common/obs.h"
#include "common/rng.h"
#include "common/simd.h"
#include "common/sparse_vec.h"
#include "common/vec.h"
#include "core/feature_extractor.h"
#include "core/model_store.h"
#include "core/retina.h"
#include "core/retweet_task.h"
#include "core/scoring_engine.h"
#include "io/checkpoint.h"
#include "hatedetect/annotation.h"
#include "nn/layers.h"
#include "nn/param_registry.h"
#include "nn/recurrent.h"
#include "store/feature_store.h"
#include "text/tfidf.h"

namespace retina::core {
namespace {

// ------------------------------------------------------------ SparseVec --

Vec RandomSparseDense(Rng* rng, size_t dim, double density) {
  Vec v(dim, 0.0);
  for (size_t i = 0; i < dim; ++i) {
    if (rng->Bernoulli(density)) v[i] = rng->Normal();
  }
  return v;
}

TEST(SparseVecTest, FromDenseToDenseRoundTrips) {
  Rng rng(7);
  const Vec dense = RandomSparseDense(&rng, 64, 0.2);
  const SparseVec sparse = SparseVec::FromDense(dense);
  EXPECT_EQ(sparse.dim(), dense.size());
  const Vec back = sparse.ToDense();
  ASSERT_EQ(back.size(), dense.size());
  for (size_t i = 0; i < dense.size(); ++i) EXPECT_EQ(back[i], dense[i]);
  size_t nnz = 0;
  for (double x : dense) nnz += x != 0.0;
  EXPECT_EQ(sparse.nnz(), nnz);
}

TEST(SparseVecTest, DotMatchesDenseDot) {
  // Under the scalar kernel backend the sparse dot is the nonzero
  // subsequence of the dense loop and matches bitwise; a SIMD backend
  // partitions the nonzeros across lanes by nnz rank instead of by index,
  // so agreement is within 1e-12 relative tolerance (common/simd.h).
  const bool bitwise = simd::Active() == simd::Backend::kScalar;
  Rng rng(11);
  for (int round = 0; round < 10; ++round) {
    const Vec a = RandomSparseDense(&rng, 97, 0.15);
    const Vec b = RandomSparseDense(&rng, 97, 0.3);
    const SparseVec sa = SparseVec::FromDense(a);
    const SparseVec sb = SparseVec::FromDense(b);
    // Dense reference accumulated in the same ascending-index order.
    double ref = 0.0;
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i] != 0.0) ref += a[i] * b[i];
    }
    if (bitwise) {
      EXPECT_EQ(Dot(sa, b), ref);
    } else {
      EXPECT_NEAR(Dot(sa, b), ref, 1e-12 * std::abs(ref) + 1e-15);
    }
    // The sparse-sparse merge visits the intersection ascending, which is
    // the nonzero subsequence of the same sum. It stays a scalar loop, so
    // this holds bitwise at any dispatch.
    double ref_both = 0.0;
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i] != 0.0 && b[i] != 0.0) ref_both += a[i] * b[i];
    }
    EXPECT_EQ(Dot(sa, sb), ref_both);
  }
}

TEST(SparseVecTest, AxpyMatchesDenseAxpy) {
  Rng rng(13);
  const Vec x = RandomSparseDense(&rng, 50, 0.25);
  Vec y(50);
  for (auto& v : y) v = rng.Normal();
  Vec y_dense = y;
  Vec y_sparse = y;
  for (size_t i = 0; i < x.size(); ++i) {
    if (x[i] != 0.0) y_dense[i] += 2.5 * x[i];
  }
  Axpy(2.5, SparseVec::FromDense(x), &y_sparse);
  for (size_t i = 0; i < y.size(); ++i) EXPECT_EQ(y_sparse[i], y_dense[i]);
}

TEST(SparseVecTest, ScatterIntoWritesAtOffset) {
  SparseVec s(4);
  s.PushBack(1, 2.0);
  s.PushBack(3, -1.0);
  Vec out(6, 0.0);
  s.ScatterInto(out.data() + 2);
  EXPECT_EQ(out, Vec({0.0, 0.0, 0.0, 2.0, 0.0, -1.0}));
}

// ------------------------------------------------------------- LruCache --

TEST(LruCacheTest, GetRefreshesRecencyAndPutEvictsLru) {
  LruCache<int, std::string> cache(2);
  cache.Put(1, "one");
  cache.Put(2, "two");
  EXPECT_EQ(cache.size(), 2u);
  // Touch 1 so 2 becomes the eviction victim.
  ASSERT_NE(cache.Get(1), nullptr);
  cache.Put(3, "three");
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_FALSE(cache.Contains(2));
  EXPECT_TRUE(cache.Contains(3));
  EXPECT_EQ(cache.Get(2), nullptr);
  EXPECT_EQ(*cache.Get(3), "three");
}

TEST(LruCacheTest, PutOverwritesInPlaceWithoutEviction) {
  LruCache<int, int> cache(2);
  cache.Put(1, 10);
  cache.Put(2, 20);
  cache.Put(1, 11);  // overwrite, not a new entry
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 0u);
  EXPECT_EQ(*cache.Get(1), 11);
  // 2 is now LRU.
  cache.Put(3, 30);
  EXPECT_FALSE(cache.Contains(2));
}

// -------------------------------------------------------- Sparse tf-idf --

TEST(TfIdfSparseTest, TransformSparseEqualsTransform) {
  Rng rng(17);
  const std::vector<std::string> vocab = {"aa", "bb", "cc", "dd", "ee",
                                          "ff", "gg", "hh", "ii", "jj"};
  std::vector<std::vector<std::string>> docs;
  for (int d = 0; d < 40; ++d) {
    std::vector<std::string> doc;
    const size_t len = 3 + rng.UniformInt(12);
    for (size_t t = 0; t < len; ++t) {
      doc.push_back(vocab[rng.UniformInt(vocab.size())]);
    }
    docs.push_back(std::move(doc));
  }
  text::TfIdfOptions opts;
  opts.max_features = 8;
  opts.min_df = 1;
  text::TfIdfVectorizer vectorizer(opts);
  ASSERT_TRUE(vectorizer.Fit(docs).ok());

  for (const auto& doc : docs) {
    const Vec dense = vectorizer.Transform(doc);
    const Vec sparse = vectorizer.TransformSparse(doc).ToDense();
    ASSERT_EQ(sparse.size(), dense.size());
    for (size_t i = 0; i < dense.size(); ++i) {
      EXPECT_EQ(sparse[i], dense[i]) << "doc term " << i;
    }
  }
}

// ------------------------------------------------------ Batched kernels --

TEST(BatchedKernelTest, MatMulTransposedBMatchesPerRowMatVec) {
  Rng rng(23);
  Matrix a(5, 12), bt(7, 12);
  for (size_t r = 0; r < a.rows(); ++r) {
    for (size_t c = 0; c < a.cols(); ++c) a.Row(r)[c] = rng.Normal();
  }
  for (size_t r = 0; r < bt.rows(); ++r) {
    for (size_t c = 0; c < bt.cols(); ++c) bt.Row(r)[c] = rng.Normal();
  }
  const Matrix c = a.MatMulTransposedB(bt);
  ASSERT_EQ(c.rows(), 5u);
  ASSERT_EQ(c.cols(), 7u);
  for (size_t i = 0; i < a.rows(); ++i) {
    const Vec row = bt.MatVec(a.RowVec(i));
    for (size_t j = 0; j < bt.rows(); ++j) EXPECT_EQ(c.Row(i)[j], row[j]);
  }
}

TEST(BatchedKernelTest, DenseForwardBatchRawBitIdenticalToForward) {
  Rng rng(29);
  nn::Dense layer(20, 9);
  {
    nn::ParamRegistry reg;
    layer.RegisterParams(&reg, "dense");
    reg.InitGlorot(&rng);
  }
  Matrix x(6, 20);
  for (size_t r = 0; r < x.rows(); ++r) {
    for (size_t c = 0; c < x.cols(); ++c) {
      x.Row(r)[c] = rng.Bernoulli(0.3) ? rng.Normal() : 0.0;
    }
  }
  Matrix batch(x.rows(), 9);
  layer.ForwardBatchRaw(x.Row(0), x.rows(), batch.Row(0));
  for (size_t r = 0; r < x.rows(); ++r) {
    const Vec one = layer.Forward(x.RowVec(r));
    for (size_t j = 0; j < one.size(); ++j) {
      EXPECT_EQ(batch.Row(r)[j], one[j]);
    }
  }
}

// ---------------------------------------------- End-to-end bit-identity --

datagen::WorldConfig TestConfig() {
  datagen::WorldConfig config;
  config.scale = 0.05;
  config.num_users = 700;
  config.history_length = 12;
  config.news_per_day = 40.0;
  return config;
}

FeatureConfig TestFeatureConfig() {
  FeatureConfig config;
  config.history_size = 8;
  config.history_tfidf_dim = 60;
  config.news_tfidf_dim = 60;
  config.tweet_tfidf_dim = 60;
  config.news_window = 15;
  config.doc2vec_dim = 12;
  config.doc2vec_epochs = 2;
  return config;
}

struct Fixture {
  datagen::SyntheticWorld world;
  std::unique_ptr<FeatureExtractor> extractor;
  RetweetTask task;
};

Fixture& SharedFixture() {
  static Fixture* fixture = [] {
    auto* f = new Fixture{
        datagen::SyntheticWorld::Generate(TestConfig(), 43), nullptr, {}};
    hatedetect::AnnotationOptions aopts;
    auto report = hatedetect::AnnotateWorld(&f->world, aopts);
    EXPECT_TRUE(report.ok());
    auto fx = FeatureExtractor::Build(f->world, TestFeatureConfig());
    EXPECT_TRUE(fx.ok());
    f->extractor =
        std::make_unique<FeatureExtractor>(std::move(fx).ValueOrDie());
    RetweetTaskOptions topts;
    topts.min_news = 15;
    topts.max_candidates = 24;
    auto task = BuildRetweetTask(*f->extractor, topts);
    EXPECT_TRUE(task.ok());
    f->task = std::move(task).ValueOrDie();
    return f;
  }();
  return *fixture;
}

std::unique_ptr<Retina> TrainModel(
    const RetweetTask& task, bool dynamic, bool use_exogenous = true,
    nn::RecurrentKind recurrent = nn::RecurrentKind::kGru) {
  RetinaOptions opts;
  opts.hidden = 12;
  opts.epochs = 2;
  opts.dynamic = dynamic;
  opts.use_exogenous = use_exogenous;
  opts.recurrent = recurrent;
  auto model = std::make_unique<Retina>(task.user_dim, task.content_dim,
                                        task.embed_dim, task.NumIntervals(),
                                        opts);
  EXPECT_TRUE(model->Train(task).ok());
  return model;
}

constexpr nn::RecurrentKind kRecurrentKinds[] = {
    nn::RecurrentKind::kGru, nn::RecurrentKind::kLstm,
    nn::RecurrentKind::kSimpleRnn};

// Per-candidate reference: the pre-batching ScoreCandidates loop.
Vec SerialScores(const Retina& model, const RetweetTask& task,
                 const std::vector<RetweetCandidate>& candidates) {
  Vec scores(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    scores[i] = model.PredictScore(task.tweets[candidates[i].tweet_pos],
                                   candidates[i].user_features);
  }
  return scores;
}

// Both heads run with attention on and off (the † ablation): the raw-row
// pass handles the no-attention case (an empty attention output) itself.
TEST(BatchedRetinaTest, StaticScoreCandidatesBitIdenticalToSerial) {
  auto& f = SharedFixture();
  for (const bool use_exogenous : {true, false}) {
    const auto model =
        TrainModel(f.task, /*dynamic=*/false, use_exogenous);
    const Vec batched = model->ScoreCandidates(f.task, f.task.test);
    const Vec serial = SerialScores(*model, f.task, f.task.test);
    ASSERT_EQ(batched.size(), serial.size());
    for (size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(batched[i], serial[i])
          << "use_exogenous=" << use_exogenous << " candidate " << i;
    }
  }
}

// Every recurrent cell, attention on and off.
TEST(BatchedRetinaTest, DynamicBatchBitIdenticalToSerial) {
  auto& f = SharedFixture();
  const size_t J = f.task.NumIntervals();
  for (const nn::RecurrentKind kind : kRecurrentKinds) {
    for (const bool use_exogenous : {true, false}) {
      SCOPED_TRACE(nn::RecurrentKindName(kind));
      const auto model =
          TrainModel(f.task, /*dynamic=*/true, use_exogenous, kind);
      const Vec batched = model->ScoreCandidates(f.task, f.task.test);
      const Vec serial = SerialScores(*model, f.task, f.task.test);
      ASSERT_EQ(batched.size(), serial.size());
      for (size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(batched[i], serial[i])
            << "use_exogenous=" << use_exogenous << " candidate " << i;
      }
      // Per-interval rows too, through the public batched API.
      ScratchArena arena;
      for (size_t i = 0; i < f.task.test.size();) {
        size_t j = i + 1;
        while (j < f.task.test.size() &&
               f.task.test[j].tweet_pos == f.task.test[i].tweet_pos) {
          ++j;
        }
        std::vector<const double*> rows;
        for (size_t s = i; s < j; ++s) {
          rows.push_back(f.task.test[s].user_features.data());
        }
        const TweetContext& ctx = f.task.tweets[f.task.test[i].tweet_pos];
        arena.Reset();
        Vec probs((j - i) * J);
        model->PredictDynamicRows(ctx, rows.data(), j - i, probs.data(),
                                  &arena);
        for (size_t s = i; s < j; ++s) {
          const Vec one =
              model->PredictDynamic(ctx, f.task.test[s].user_features);
          ASSERT_EQ(one.size(), J);
          for (size_t m = 0; m < J; ++m) {
            EXPECT_EQ(probs[(s - i) * J + m], one[m])
                << "use_exogenous=" << use_exogenous << " candidate " << s
                << " interval " << m;
          }
        }
        i = j;
      }
    }
  }
}

/// The engine's replay of the task's test split.
Vec ServeTestSplit(ScoringEngine* engine, const RetweetTask& task) {
  Vec scores;
  engine->ScoreCandidatesInto(task, task.test, &scores);
  return scores;
}

/// The engine's counts live in the process-wide registry, which counts in
/// every build: exact pins read the growth of counter `name` since `before`.
uint64_t CounterSince(const obs::RegistrySnapshot& before,
                      const std::string& name) {
  const obs::RegistrySnapshot delta = obs::Registry::SnapshotDelta(
      before, obs::Registry::Global().TakeSnapshot());
  const auto it = delta.counters.find(name);
  return it == delta.counters.end() ? 0 : it->second;
}

TEST(ScoringEngineTest, AllModesBitIdenticalToModelScores) {
  auto& f = SharedFixture();
  const auto model = TrainModel(f.task, /*dynamic=*/false);
  const Vec reference = model->ScoreCandidates(f.task, f.task.test);

  for (const bool batched : {false, true}) {
    for (const bool cached : {false, true}) {
      ScoringEngineOptions opts;
      opts.batched = batched;
      opts.cache_features = cached;
      ScoringEngine engine(model.get(), f.extractor.get(), opts);
      const Vec served = ServeTestSplit(&engine, f.task);
      ASSERT_EQ(served.size(), reference.size());
      for (size_t i = 0; i < reference.size(); ++i) {
        EXPECT_EQ(served[i], reference[i])
            << "batched=" << batched << " cached=" << cached << " i=" << i;
      }
    }
  }
}

TEST(ScoringEngineTest, DynamicModeBitIdenticalToModelScores) {
  auto& f = SharedFixture();
  const auto model = TrainModel(f.task, /*dynamic=*/true);
  const Vec reference = model->ScoreCandidates(f.task, f.task.test);
  ScoringEngine engine(model.get(), f.extractor.get());
  const Vec served = ServeTestSplit(&engine, f.task);
  ASSERT_EQ(served.size(), reference.size());
  for (size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(served[i], reference[i]) << "candidate " << i;
  }
}

TEST(ScoringEngineTest, CacheStatsTrackHitsAndRepeatRequestsHit) {
  auto& f = SharedFixture();
  const auto model = TrainModel(f.task, /*dynamic=*/false);
  ScoringEngine engine(model.get(), f.extractor.get());
  obs::Registry& reg = obs::Registry::Global();
  const obs::RegistrySnapshot before_first = reg.TakeSnapshot();
  const Vec first = ServeTestSplit(&engine, f.task);
  EXPECT_GT(CounterSince(before_first, "serving.requests"), 0u);
  EXPECT_EQ(CounterSince(before_first, "serving.candidates"),
            f.task.test.size());
  EXPECT_GT(CounterSince(before_first, "serving.user_cache.misses"), 0u);
  EXPECT_EQ(CounterSince(before_first, "serving.tweet_cache.hits"), 0u);

  // Replaying the same workload hits both caches for every lookup.
  const obs::RegistrySnapshot before_second = reg.TakeSnapshot();
  const Vec second = ServeTestSplit(&engine, f.task);
  EXPECT_EQ(CounterSince(before_second, "serving.user_cache.misses"), 0u);
  EXPECT_EQ(CounterSince(before_second, "serving.tweet_cache.misses"), 0u);
  EXPECT_GT(CounterSince(before_second, "serving.tweet_cache.hits"), 0u);
  EXPECT_GT(CounterSince(before_second, "serving.user_cache.hits"), 0u);
  for (size_t i = 0; i < first.size(); ++i) EXPECT_EQ(second[i], first[i]);
}

// -------------------------------------------------------- Checkpointing --

// The acceptance bar for the checkpoint layer: save -> load -> score is
// bit-exact for both RETINA heads, through the serialized byte stream.
// Bundles saved while RetinaOptions still had a macro-batch knob carry a
// retina/options/batch_groups entry; such a checkpoint must load and
// score the same.
void CheckRetinaRoundTrip(
    bool dynamic, nn::RecurrentKind recurrent = nn::RecurrentKind::kGru) {
  auto& f = SharedFixture();
  const auto model = TrainModel(f.task, dynamic, /*use_exogenous=*/true,
                                recurrent);
  const Vec reference = model->ScoreCandidates(f.task, f.task.test);
  for (const bool legacy_batch_groups : {false, true}) {
    io::Checkpoint ckpt;
    ASSERT_TRUE(model->Save(&ckpt).ok());
    if (legacy_batch_groups) ckpt.PutI64("retina/options/batch_groups", 1);
    auto reloaded =
        io::Checkpoint::DeserializeFromBytes(ckpt.SerializeToBytes());
    ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
    auto loaded = Retina::Load(reloaded.ValueOrDie());
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    const auto loaded_model = std::move(loaded).ValueOrDie();

    EXPECT_EQ(loaded_model->options().dynamic, dynamic);
    EXPECT_EQ(loaded_model->input_dim(), model->input_dim());
    const Vec scored = loaded_model->ScoreCandidates(f.task, f.task.test);
    ASSERT_EQ(scored.size(), reference.size());
    for (size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(scored[i], reference[i])
          << "legacy_batch_groups=" << legacy_batch_groups << " candidate "
          << i;
    }
  }
}

TEST(RetinaCheckpointTest, StaticSaveLoadScoresBitIdentically) {
  CheckRetinaRoundTrip(/*dynamic=*/false);
}

TEST(RetinaCheckpointTest, DynamicSaveLoadScoresBitIdentically) {
  for (const nn::RecurrentKind kind : kRecurrentKinds) {
    SCOPED_TRACE(nn::RecurrentKindName(kind));
    CheckRetinaRoundTrip(/*dynamic=*/true, kind);
  }
}

TEST(FeatureExtractorRestoreTest, RejectsDoc2VecDimMismatch) {
  // A config doc2vec_dim that disagrees with the saved Doc2Vec model would
  // size news windows and alignment buffers narrower than the model's rows.
  auto& f = SharedFixture();
  io::Checkpoint ckpt;
  f.extractor->SaveTo(&ckpt, "features/");
  ckpt.PutI64("features/config/doc2vec_dim", 13);  // the model is 12 wide
  auto restored = FeatureExtractor::Restore(f.world, ckpt, "features/");
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument)
      << restored.status().ToString();
}

// A fresh directory for one bundle under the system temp dir.
std::string BundleDir(const std::string& tag) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("retina_bundle_test_" + std::to_string(::getpid()) + "_" + tag))
          .string();
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(ScoringEngineTest, BundleFromDiskBitIdenticalToInProcessModel) {
  // The train-once / serve-many path the CLI uses: SaveScoringBundle to a
  // directory, LoadScoringBundle in a "fresh process", score identically.
  auto& f = SharedFixture();
  const auto model = TrainModel(f.task, /*dynamic=*/true);
  const std::string dir = BundleDir("dynamic");
  ScoringBundleMeta meta;
  meta.task_seed = 43;
  ASSERT_TRUE(SaveScoringBundle(dir, *model, *f.extractor, meta).ok());

  const obs::Counter* computed = obs::Registry::Global().GetCounter(
      "features.history_blocks_computed");
  const uint64_t computed_before = computed->Get();
  auto bundle = LoadScoringBundle(dir, f.world);
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
  // Restore keeps fitted state only: loading computes no user features.
  EXPECT_EQ(computed->Get() - computed_before, 0u);
  const LoadedScoringBundle& loaded = bundle.ValueOrDie();
  EXPECT_EQ(loaded.meta.task_seed, 43u);

  const Vec reference = model->ScoreCandidates(f.task, f.task.test);
  ScoringEngine engine(loaded.model.get(), loaded.extractor.get());
  const Vec served = ServeTestSplit(&engine, f.task);
  ASSERT_EQ(served.size(), reference.size());
  for (size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(served[i], reference[i]) << "candidate " << i;
  }
}

TEST(ScoringEngineTest, BundleRejectsModelWidthMismatch) {
  // A model whose first layer is one column wider than the extractor's
  // [user_features ; tweet_content] rows cannot score them.
  auto& f = SharedFixture();
  RetinaOptions opts;
  opts.hidden = 12;
  const Retina model(f.task.user_dim + 1, f.task.content_dim,
                     f.task.embed_dim, f.task.NumIntervals(), opts);
  const std::string dir = BundleDir("mismatch");
  ASSERT_TRUE(SaveScoringBundle(dir, model, *f.extractor, {}).ok());
  auto bundle = LoadScoringBundle(dir, f.world);
  std::filesystem::remove_all(dir);
  ASSERT_FALSE(bundle.ok());
  EXPECT_EQ(bundle.status().code(), StatusCode::kInvalidArgument)
      << bundle.status().ToString();
  EXPECT_NE(bundle.status().ToString().find("feature width"),
            std::string::npos)
      << bundle.status().ToString();
}

TEST(ScoringEngineTest, TinyUserCacheEvictsAndStaysCorrect) {
  auto& f = SharedFixture();
  const auto model = TrainModel(f.task, /*dynamic=*/false);
  const Vec reference = model->ScoreCandidates(f.task, f.task.test);
  ScoringEngineOptions opts;
  opts.user_cache_capacity = 4;  // far below the distinct-user count
  opts.tweet_cache_capacity = 2;
  ScoringEngine engine(model.get(), f.extractor.get(), opts);
  const obs::RegistrySnapshot before = obs::Registry::Global().TakeSnapshot();
  const Vec served = ServeTestSplit(&engine, f.task);
  EXPECT_GT(CounterSince(before, "serving.user_cache.evictions"), 0u);
  for (size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(served[i], reference[i]) << "candidate " << i;
  }
}

TEST(ScoringEngineTest, EvictionsCountEveryEngineNotTheLastOne) {
  // Engine A's 2-entry user LRU evicts; engine B then scores the same split
  // without evicting. The counter keeps A's evictions: it does not read as
  // whichever engine scored last.
  auto& f = SharedFixture();
  const auto model = TrainModel(f.task, /*dynamic=*/false);
  ScoringEngineOptions tiny;
  tiny.user_cache_capacity = 2;
  ScoringEngine a(model.get(), f.extractor.get(), tiny);
  ScoringEngine b(model.get(), f.extractor.get());
  obs::Registry& reg = obs::Registry::Global();

  const obs::RegistrySnapshot before = reg.TakeSnapshot();
  ServeTestSplit(&a, f.task);
  const uint64_t a_evictions =
      CounterSince(before, "serving.user_cache.evictions");
  // Every miss past the first two inserts a user into a full cache.
  EXPECT_EQ(a_evictions,
            CounterSince(before, "serving.user_cache.misses") - 2);
  EXPECT_GT(a_evictions, 0u);

  const obs::RegistrySnapshot between = reg.TakeSnapshot();
  ServeTestSplit(&b, f.task);
  EXPECT_EQ(CounterSince(between, "serving.user_cache.evictions"), 0u);
  EXPECT_EQ(CounterSince(before, "serving.user_cache.evictions"),
            a_evictions);
}

// ---------------------------------------------------- Tiered user store --

// Builds the shared fixture's user store once per test in a fresh temp
// dir; callers remove it on success (TearDown-free TEST style matches the
// rest of this file, and a leaked dir under /tmp on failure aids triage).
std::string BuildFixtureStore(const std::string& tag) {
  auto& f = SharedFixture();
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("retina_engine_store_" + std::to_string(::getpid()) + "_" + tag))
          .string();
  std::filesystem::remove_all(dir);
  const Status st = ScoringEngine::BuildStore(*f.extractor, dir);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return dir;
}

TEST(ScoringEngineStoreTest, StoreTierBitIdenticalToComputePath) {
  auto& f = SharedFixture();
  const auto model = TrainModel(f.task, /*dynamic=*/false);
  const std::string dir = BuildFixtureStore("bitid");

  ScoringEngine plain(model.get(), f.extractor.get());
  ScoringEngine tiered(model.get(), f.extractor.get());
  ASSERT_TRUE(tiered.AttachStore(dir).ok());
  ASSERT_NE(tiered.store(), nullptr);
  const Vec reference = ServeTestSplit(&plain, f.task);
  const obs::RegistrySnapshot before = obs::Registry::Global().TakeSnapshot();
  const Vec served = ServeTestSplit(&tiered, f.task);
  ASSERT_EQ(served.size(), reference.size());
  for (size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(served[i], reference[i]) << "candidate " << i;
  }
  EXPECT_GT(CounterSince(before, "store.tier.hits"), 0u);
  // The store covers every user.
  EXPECT_EQ(CounterSince(before, "store.tier.misses"), 0u);
  EXPECT_EQ(CounterSince(before, "store.tier.errors"), 0u);
  std::filesystem::remove_all(dir);
}

TEST(ScoringEngineStoreTest, TinyLruServesFromStoreAndStaysBitIdentical) {
  auto& f = SharedFixture();
  const auto model = TrainModel(f.task, /*dynamic=*/false);
  const Vec reference = model->ScoreCandidates(f.task, f.task.test);
  const std::string dir = BuildFixtureStore("tinylru");

  // A one-entry LRU forces nearly every candidate through the store tier;
  // with full coverage the compute tier never runs.
  ScoringEngineOptions opts;
  opts.user_cache_capacity = 1;
  ScoringEngine engine(model.get(), f.extractor.get(), opts);
  ASSERT_TRUE(engine.AttachStore(dir).ok());
  const obs::RegistrySnapshot before = obs::Registry::Global().TakeSnapshot();
  const Vec served = ServeTestSplit(&engine, f.task);
  ASSERT_EQ(served.size(), reference.size());
  for (size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(served[i], reference[i]) << "candidate " << i;
  }
  const uint64_t store_hits = CounterSince(before, "store.tier.hits");
  EXPECT_EQ(store_hits, CounterSince(before, "serving.user_cache.misses"));
  EXPECT_EQ(CounterSince(before, "store.tier.promotes"), store_hits);
  EXPECT_GT(store_hits, 1u);
  EXPECT_GT(CounterSince(before, "serving.user_cache.evictions"), 0u);
  std::filesystem::remove_all(dir);
}

TEST(ScoringEngineStoreTest, CorruptStoreFallsBackToComputeBitIdentically) {
  auto& f = SharedFixture();
  const auto model = TrainModel(f.task, /*dynamic=*/false);
  const Vec reference = model->ScoreCandidates(f.task, f.task.test);
  const std::string dir = BuildFixtureStore("corrupt");

  // Flip a byte inside the first block's extent: lookups hitting it fail
  // their checksum and the engine must recompute, bit-identically.
  const std::string data_path =
      (std::filesystem::path(dir) / store::kStoreDataFile).string();
  {
    std::ifstream in(data_path, std::ios::binary);
    std::string bytes(std::istreambuf_iterator<char>(in),
                      std::istreambuf_iterator<char>{});
    ASSERT_GT(bytes.size(), 40u);
    bytes[36] ^= 0x01;
    std::ofstream out(data_path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  ScoringEngine engine(model.get(), f.extractor.get());
  ASSERT_TRUE(engine.AttachStore(dir).ok());  // corruption found lazily
  const obs::RegistrySnapshot before = obs::Registry::Global().TakeSnapshot();
  const Vec served = ServeTestSplit(&engine, f.task);
  ASSERT_EQ(served.size(), reference.size());
  for (size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(served[i], reference[i]) << "candidate " << i;
  }
  EXPECT_GT(CounterSince(before, "store.tier.errors"), 0u);
  std::filesystem::remove_all(dir);
}

TEST(ScoringEngineStoreTest, AttachStoreRejectsDimMismatch) {
  auto& f = SharedFixture();
  const auto model = TrainModel(f.task, /*dynamic=*/false);
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("retina_engine_store_" + std::to_string(::getpid()) + "_dim"))
          .string();
  std::filesystem::remove_all(dir);
  auto builder = store::FeatureStoreBuilder::Create(
      dir, f.extractor->HistoryBlockDim() + 1);
  ASSERT_TRUE(builder.ok()) << builder.status().ToString();
  ASSERT_TRUE(builder.ValueOrDie()->Finish().ok());

  ScoringEngine engine(model.get(), f.extractor.get());
  const Status st = engine.AttachStore(dir);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(engine.store(), nullptr);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace retina::core
