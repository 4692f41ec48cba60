// Thread-scaling bench for the retina::par execution layer.
//
// Times five representative workloads at 1/2/4/8 threads and writes
// BENCH_parallel.json with wall-clock times and speedups relative to one
// thread. Hardware metadata (hardware_concurrency) is recorded alongside:
// on a machine with fewer cores than the sweep's thread counts the upper
// entries measure oversubscription, not parallel speedup, and should be
// read together with that field.
//
// Flags: --reps=<n> repetitions per cell (default 3, median reported);
// --smoke shrinks every workload and forces reps=1 so the smoke_bench
// ctest target can exercise the full sweep quickly.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "core/feature_extractor.h"
#include "core/hategen_task.h"
#include "core/retina.h"
#include "datagen/world.h"
#include "io/checkpoint.h"
#include "ml/random_forest.h"

namespace retina::bench {
namespace {

constexpr size_t kThreadCounts[] = {1, 2, 4, 8};

double MedianSeconds(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return xs[xs.size() / 2];
}

core::RetweetTask MakeTrainTask(size_t n_tweets, size_t cands_per_tweet,
                                uint64_t seed) {
  core::RetweetTask task;
  task.user_dim = 24;
  task.content_dim = 16;
  task.embed_dim = 16;
  task.interval_edges = {0.0, 1.0, 8.0, 24.0, 72.0};
  Rng rng(seed);
  const size_t n_intervals = task.NumIntervals();
  for (size_t t = 0; t < n_tweets; ++t) {
    core::TweetContext ctx;
    ctx.tweet_id = t;
    ctx.content = Vec(task.content_dim);
    for (double& v : ctx.content) v = rng.Normal();
    ctx.embedding = Vec(task.embed_dim);
    for (double& v : ctx.embedding) v = rng.Normal();
    ctx.news_window = Matrix(12, task.embed_dim);
    for (double& v : ctx.news_window.data()) v = rng.Normal();
    task.tweets.push_back(std::move(ctx));
    for (size_t k = 0; k < cands_per_tweet; ++k) {
      core::RetweetCandidate cand;
      cand.tweet_pos = t;
      cand.user = static_cast<datagen::NodeId>(k);
      cand.label = (k % 3 == 0) ? 1 : 0;
      cand.interval_labels.assign(n_intervals, 0);
      if (cand.label == 1) cand.interval_labels[k % n_intervals] = 1;
      cand.user_features = Vec(task.user_dim);
      for (double& v : cand.user_features) v = rng.Normal();
      task.train.push_back(std::move(cand));
    }
  }
  // Minimal test split so Train's preconditions hold if reused.
  task.test.push_back(task.train.back());
  return task;
}

double TimeRetinaTrain(const core::RetweetTask& task, size_t hidden) {
  core::RetinaOptions opts;
  opts.hidden = hidden;
  opts.epochs = 2;
  opts.seed = 5;
  core::Retina model(task.user_dim, task.content_dim, task.embed_dim,
                     task.NumIntervals(), opts);
  Stopwatch sw;
  if (!model.Train(task).ok()) return -1.0;
  return sw.ElapsedSeconds();
}

double TimeRandomForestFit(const Matrix& X, const std::vector<int>& y,
                           size_t n_estimators) {
  ml::RandomForestOptions opts;
  opts.n_estimators = n_estimators;
  opts.seed = 17;
  ml::RandomForest forest(opts);
  Stopwatch sw;
  if (!forest.Fit(X, y).ok()) return -1.0;
  return sw.ElapsedSeconds();
}

double TimeWorldGenerate(uint64_t seed) {
  datagen::WorldConfig config;
  config.scale = 0.03;
  config.num_users = 800;
  config.history_length = 10;
  config.news_per_day = 30.0;
  Stopwatch sw;
  const auto world = datagen::SyntheticWorld::Generate(config, seed);
  return world.NumUsers() == 800 ? sw.ElapsedSeconds() : -1.0;
}

datagen::SyntheticWorld MakeSmallWorld(bool smoke) {
  datagen::WorldConfig config;
  config.scale = smoke ? 0.02 : 0.03;
  config.num_users = smoke ? 400 : 2000;
  config.history_length = smoke ? 10 : 20;
  config.news_per_day = 30.0;
  return datagen::SyntheticWorld::Generate(config, 91);
}

// An extractor over `world` saved and restored the way a scoring bundle
// stores it.
core::FeatureExtractor MakeRestoredExtractor(
    const datagen::SyntheticWorld& world, bool smoke) {
  core::FeatureConfig fc;
  fc.history_size = smoke ? 10 : 20;
  fc.history_tfidf_dim = smoke ? 80 : 200;
  fc.news_tfidf_dim = smoke ? 80 : 200;
  fc.tweet_tfidf_dim = smoke ? 80 : 200;
  fc.doc2vec_dim = smoke ? 16 : 50;
  fc.doc2vec_epochs = 2;
  auto built = core::FeatureExtractor::Build(world, fc);
  if (!built.ok()) {
    std::fprintf(stderr, "extractor build failed: %s\n",
                 built.status().ToString().c_str());
    std::exit(1);
  }
  io::Checkpoint ckpt;
  built.ValueOrDie().SaveTo(&ckpt, "features/");
  auto restored = core::FeatureExtractor::Restore(world, ckpt, "features/");
  if (!restored.ok()) {
    std::fprintf(stderr, "extractor restore failed: %s\n",
                 restored.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(restored).ValueOrDie();
}

// Hate-generation task build: every row computes its user's history block
// and infers the user's Doc2Vec embedding, which dominates its cost.
double TimeHateGenTaskBuild(const core::FeatureExtractor& fx) {
  Stopwatch sw;
  const auto task = core::BuildHateGenTask(fx, {});
  return task.ok() ? sw.ElapsedSeconds() : -1.0;
}

// Monte-Carlo-flood-shaped workload: per-stream random walks reduced in
// chunk order, the same structure as SirModel::ScoreCandidates.
double TimeMonteCarlo(size_t n_sims) {
  Stopwatch sw;
  const double total = par::ParallelReduce<double>(
      n_sims, 1, 0.0,
      [&](const par::ChunkRange& chunk) {
        double acc = 0.0;
        for (size_t sim = chunk.begin; sim < chunk.end; ++sim) {
          Rng rng = Rng::Stream(99, sim);
          double x = 0.0;
          for (int step = 0; step < 20000; ++step) {
            x += rng.Bernoulli(0.3) ? rng.Uniform() : -rng.Uniform();
          }
          acc += x;
        }
        return acc;
      },
      [](double a, double b) { return a + b; });
  const double secs = sw.ElapsedSeconds();
  return total == total ? secs : -1.0;  // keep the reduction observable
}

}  // namespace
}  // namespace retina::bench

int main(int argc, char** argv) {
  using namespace retina;
  using namespace retina::bench;

  int reps = 3;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--reps=", 7) == 0) reps = std::atoi(argv[i] + 7);
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  if (smoke) reps = 1;
  if (reps < 1) reps = 1;

  const core::RetweetTask task =
      smoke ? MakeTrainTask(6, 16, 11) : MakeTrainTask(24, 48, 11);
  const size_t hidden = smoke ? 16 : 32;
  const size_t n_trees = smoke ? 8 : 40;
  const size_t n_sims = smoke ? 64 : 512;
  Rng rng(3);
  const size_t n = smoke ? 300 : 1500, d = 12;
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

  const datagen::SyntheticWorld world = MakeSmallWorld(smoke);
  const core::FeatureExtractor restored = MakeRestoredExtractor(world, smoke);

  struct Workload {
    const char* name;
    std::function<double()> run;
  };
  const std::vector<Workload> workloads = {
      {"retina_train", [&] { return TimeRetinaTrain(task, hidden); }},
      {"random_forest_fit",
       [&] { return TimeRandomForestFit(X, y, n_trees); }},
      {"monte_carlo_floods", [&] { return TimeMonteCarlo(n_sims); }},
      {"world_generate", [] { return TimeWorldGenerate(77); }},
      {"hategen_task_build",
       [&] { return TimeHateGenTaskBuild(restored); }},
  };

  // times[w][t] = median seconds for workload w at kThreadCounts[t].
  std::vector<std::vector<double>> times(workloads.size());
  for (size_t w = 0; w < workloads.size(); ++w) {
    for (size_t threads : kThreadCounts) {
      par::SetNumThreads(threads);
      std::vector<double> samples;
      for (int r = 0; r < reps; ++r) samples.push_back(workloads[w].run());
      times[w].push_back(MedianSeconds(std::move(samples)));
      std::printf("%-20s threads=%zu  %8.4f s\n", workloads[w].name, threads,
                  times[w].back());
    }
  }
  par::SetNumThreads(par::DefaultNumThreads());

  const char* out_path = "BENCH_parallel.json";
  FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path);
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"hardware_concurrency\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"reps\": %d,\n", reps);
  std::fprintf(f, "  \"thread_counts\": [1, 2, 4, 8],\n");
  std::fprintf(f, "  \"workloads\": {\n");
  for (size_t w = 0; w < workloads.size(); ++w) {
    std::fprintf(f, "    \"%s\": {\n      \"seconds\": [", workloads[w].name);
    for (size_t t = 0; t < times[w].size(); ++t) {
      std::fprintf(f, "%s%.6f", t ? ", " : "", times[w][t]);
    }
    std::fprintf(f, "],\n      \"speedup_vs_1\": [");
    for (size_t t = 0; t < times[w].size(); ++t) {
      const double s = times[w][t] > 0.0 ? times[w][0] / times[w][t] : 0.0;
      std::fprintf(f, "%s%.3f", t ? ", " : "", s);
    }
    std::fprintf(f, "]\n    }%s\n", w + 1 < workloads.size() ? "," : "");
  }
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path);
  return 0;
}
