// Serving-throughput bench for the batched sparse scoring engine.
//
// Replays a request stream ("score this candidate pool for this root
// tweet") against a trained static RETINA through three ScoringEngine
// configurations:
//   per_candidate   — stateless server: every feature vector rebuilt from
//                     the raw world, one model forward per candidate
//   batched         — same feature work, but one GEMM-batched forward per
//                     request (shared attention, blocked MatMul layers)
//   batched_cached  — batched forward plus the per-user / per-tweet LRUs
// and reports candidates/sec per mode at several candidate-pool sizes.
// All three modes produce bit-identical scores (asserted here per run);
// the cached mode is timed on a warm cache — the steady state of a server
// whose active-user working set fits the LRU — after an untimed warming
// pass. Hardware metadata is recorded like BENCH_parallel.json: on a
// single-core container the batched-vs-per-candidate ratio is pure
// algorithmic speedup, not parallelism.
//
// Flags: bench_common.h standard set; --reps=<n> (default 3, median);
// --model=<dir> loads a saved scoring bundle from <dir> instead of
// training (and saves one there after training when none exists), so
// repeated bench runs skip the training phase.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "common/stopwatch.h"
#include "core/model_store.h"
#include "core/scoring_engine.h"

namespace retina::bench {
namespace {

double MedianSeconds(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return xs[xs.size() / 2];
}

struct Request {
  datagen::Tweet tweet;
  std::vector<core::NodeId> users;
};

// A request stream over the task's tweets with a Zipf-flavored candidate
// mix: a shared "active" user pool most requests draw from (these hit a
// warm LRU) plus per-request uniform draws. Deterministic in the seed.
std::vector<Request> MakeRequests(const datagen::SyntheticWorld& world,
                                  const core::RetweetTask& task,
                                  size_t n_requests, size_t pool_size,
                                  uint64_t seed) {
  Rng rng(seed);
  const size_t n_users = world.NumUsers();
  const size_t active = std::max<size_t>(1, n_users / 4);
  std::vector<Request> requests;
  requests.reserve(n_requests);
  for (size_t r = 0; r < n_requests; ++r) {
    Request req;
    req.tweet =
        world.tweets()[task.tweets[r % task.tweets.size()].tweet_id];
    req.users.reserve(pool_size);
    for (size_t k = 0; k < pool_size; ++k) {
      const bool hot = rng.Bernoulli(0.8);
      const size_t limit = hot ? active : n_users;
      req.users.push_back(static_cast<core::NodeId>(rng.UniformInt(limit)));
    }
    requests.push_back(std::move(req));
  }
  return requests;
}

double RunStream(core::ScoringEngine* engine,
                 const std::vector<Request>& requests, Vec* scores_out) {
  scores_out->clear();
  Stopwatch sw;
  Vec scores;
  for (const Request& req : requests) {
    engine->ScoreTweetInto(req.tweet, req.users, &scores);
    scores_out->insert(scores_out->end(), scores.begin(), scores.end());
  }
  return sw.ElapsedSeconds();
}

}  // namespace
}  // namespace retina::bench

int main(int argc, char** argv) {
  using namespace retina;
  using namespace retina::bench;

  int reps = 3;
  std::string model_dir;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--reps=", 7) == 0) reps = std::atoi(argv[i] + 7);
    if (std::strncmp(argv[i], "--model=", 8) == 0) model_dir = argv[i] + 8;
  }
  if (reps < 1) reps = 1;

  BenchFlags flags = ParseFlags(argc, argv, /*default_scale=*/0.04,
                                /*default_users=*/1200);
  BenchWorld bw = MakeBenchWorld(flags, /*feature_dim=*/200,
                                 /*news_window=*/40);

  core::RetweetTaskOptions topts;
  topts.min_news = flags.smoke ? 15 : 40;
  topts.seed = flags.seed;
  auto task_result = core::BuildRetweetTask(*bw.extractor, topts);
  if (!task_result.ok()) {
    std::fprintf(stderr, "task build failed: %s\n",
                 task_result.status().ToString().c_str());
    return 1;
  }
  const core::RetweetTask& task = task_result.ValueOrDie();

  // Model + extractor either restored from a bundle or trained in-process;
  // the restored pair scores bit-identically, so the modes below can't
  // tell the difference.
  const core::Retina* model = nullptr;
  const core::FeatureExtractor* extractor = bw.extractor.get();
  core::LoadedScoringBundle bundle;
  std::unique_ptr<core::Retina> trained;
  if (!model_dir.empty()) {
    auto bundle_result = core::LoadScoringBundle(model_dir, bw.world);
    if (bundle_result.ok()) {
      bundle = std::move(bundle_result).ValueOrDie();
      model = bundle.model.get();
      extractor = bundle.extractor.get();
      std::fprintf(stderr, "[bench] loaded bundle from %s\n",
                   model_dir.c_str());
    } else {
      std::fprintf(stderr, "[bench] no usable bundle at %s (%s); training\n",
                   model_dir.c_str(),
                   bundle_result.status().ToString().c_str());
    }
  }
  if (model == nullptr) {
    Stopwatch timer;
    core::RetinaOptions ropts;
    ropts.epochs = 2;
    ropts.seed = flags.seed;
    trained = std::make_unique<core::Retina>(task.user_dim, task.content_dim,
                                             task.embed_dim,
                                             task.NumIntervals(), ropts);
    if (!trained->Train(task).ok()) {
      std::fprintf(stderr, "training failed\n");
      return 1;
    }
    std::fprintf(stderr, "[bench] RETINA-S trained (%.1fs)\n",
                 timer.ElapsedSeconds());
    model = trained.get();
    if (!model_dir.empty()) {
      core::ScoringBundleMeta meta;
      meta.task_seed = flags.seed;
      const Status save_st = core::SaveScoringBundle(model_dir, *trained,
                                                     *bw.extractor, meta);
      if (save_st.ok()) {
        std::fprintf(stderr, "[bench] bundle saved to %s\n",
                     model_dir.c_str());
      } else {
        std::fprintf(stderr, "[bench] bundle save failed: %s\n",
                     save_st.ToString().c_str());
      }
    }
  }

  const std::vector<size_t> pool_sizes =
      flags.smoke ? std::vector<size_t>{4, 8}
                  : std::vector<size_t>{8, 32, 96};
  const size_t n_requests = flags.smoke ? 6 : 40;

  struct Mode {
    const char* name;
    bool batched;
    bool cached;
  };
  const Mode modes[] = {{"per_candidate", false, false},
                        {"batched", true, false},
                        {"batched_cached", true, true}};

  // rate[p][m] = median candidates/sec for pool_sizes[p], modes[m].
  std::vector<std::vector<double>> rate(pool_sizes.size());
  for (size_t p = 0; p < pool_sizes.size(); ++p) {
    const auto requests = MakeRequests(bw.world, task, n_requests,
                                       pool_sizes[p], flags.seed ^ 0xABCDULL);
    const double total_cands =
        static_cast<double>(n_requests * pool_sizes[p]);
    Vec reference;
    for (const Mode& mode : modes) {
      core::ScoringEngineOptions eopts;
      eopts.batched = mode.batched;
      eopts.cache_features = mode.cached;
      core::ScoringEngine engine(model, extractor, eopts);
      Vec scores;
      if (mode.cached) {
        RunStream(&engine, requests, &scores);  // untimed warming pass
      }
      std::vector<double> samples;
      for (int r = 0; r < reps; ++r) {
        samples.push_back(RunStream(&engine, requests, &scores));
      }
      // The whole point is speed *without* changing results: every mode
      // must reproduce the per-candidate scores bit for bit.
      if (reference.empty()) {
        reference = scores;
      } else if (scores != reference) {
        std::fprintf(stderr, "FATAL: mode %s diverged from per-candidate\n",
                     mode.name);
        return 1;
      }
      const double secs = MedianSeconds(std::move(samples));
      rate[p].push_back(secs > 0.0 ? total_cands / secs : 0.0);
      std::printf("pool=%-4zu %-15s %10.0f candidates/sec\n", pool_sizes[p],
                  mode.name, rate[p].back());
    }
  }

  const char* out_path = "BENCH_serving.json";
  FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path);
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"hardware_concurrency\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"reps\": %d,\n", reps);
  std::fprintf(f, "  \"requests\": %zu,\n", n_requests);
  std::fprintf(f, "  \"scale\": %.4f,\n", flags.scale);
  std::fprintf(f, "  \"users\": %zu,\n", flags.users);
  std::fprintf(f, "  \"pool_sizes\": [");
  for (size_t p = 0; p < pool_sizes.size(); ++p) {
    std::fprintf(f, "%s%zu", p ? ", " : "", pool_sizes[p]);
  }
  std::fprintf(f, "],\n  \"modes\": {\n");
  for (size_t m = 0; m < 3; ++m) {
    std::fprintf(f, "    \"%s\": {\n      \"candidates_per_sec\": [",
                 modes[m].name);
    for (size_t p = 0; p < pool_sizes.size(); ++p) {
      std::fprintf(f, "%s%.1f", p ? ", " : "", rate[p][m]);
    }
    std::fprintf(f, "],\n      \"speedup_vs_per_candidate\": [");
    for (size_t p = 0; p < pool_sizes.size(); ++p) {
      const double s = rate[p][0] > 0.0 ? rate[p][m] / rate[p][0] : 0.0;
      std::fprintf(f, "%s%.3f", p ? ", " : "", s);
    }
    std::fprintf(f, "]\n    }%s\n", m + 1 < 3 ? "," : "");
  }
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path);
  return 0;
}
