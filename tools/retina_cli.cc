// retina — command-line front end for the library.
//
//   retina generate  --out DIR [--scale F] [--users N] [--seed N]
//       Generate a synthetic world and export it as CSV.
//   retina stats     --data DIR
//       Print per-hashtag dataset statistics (Table II view) of a world.
//   retina annotate  --data DIR [--seed N]
//       Run the Section VI-B annotation pipeline in place (rewrites
//       tweets.csv machine labels) and print the reliability report.
//   retina train-hategen --data DIR [--seed N]
//       Train the best hate-generation model (decision tree + DS) and
//       print gold-test metrics.
//   retina train-retweet --data DIR [--dynamic] [--no-exo] [--seed N]
//                        [--save-model DIR]
//       Train RETINA on the retweeter-prediction task and print metrics.
//       With --save-model, write the trained model + feature pipeline as
//       a versioned checkpoint bundle for later serving.
//   retina eval --data DIR --model DIR
//       Load a saved bundle, rebuild the training-time task split from the
//       bundled seed, and evaluate — bit-identical to the metrics printed
//       by the train-retweet run that saved it.
//   retina digest --data DIR [--seed N]
//       Training digest over the task train-retweet builds: trains every
//       RETINA head (2 epochs; RETINA-D with each recurrent cell; attention
//       on and off) and fits SIR and General Threshold, at 1 and at 4
//       threads. Prints one line of FNV-1a hashes per configuration and a
//       final DIGEST line; exits 1 when a configuration's 1- and 4-thread
//       hashes differ.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/arena.h"
#include "common/bytes.h"
#include "common/logging.h"
#include "common/obs.h"
#include "common/parallel.h"
#include "common/run_export.h"
#include "common/simd.h"
#include "common/stopwatch.h"
#include "common/trace.h"
#include "common/string_util.h"
#include "common/table.h"
#include "core/feature_extractor.h"
#include "core/hategen_task.h"
#include "core/model_store.h"
#include "core/retina.h"
#include "core/retweet_task.h"
#include "core/scoring_engine.h"
#include "datagen/serialize.h"
#include "datagen/world.h"
#include "diffusion/sir.h"
#include "diffusion/threshold.h"
#include "hatedetect/annotation.h"
#include "io/checkpoint.h"
#include "ml/decision_tree.h"
#include "ml/metrics.h"

namespace {

using namespace retina;

struct Args {
  std::string command;
  std::string data;
  std::string out;
  std::string save_model;
  std::string model;
  std::string store_dir;
  std::string metrics_out;
  std::string trace_out;
  std::string log_level;
  std::string simd;
  double scale = 0.1;
  size_t users = 2500;
  uint64_t seed = 7;
  bool dynamic = false;
  bool no_exo = false;
};

int Usage() {
  std::fprintf(
      stderr,
      "usage: retina <generate|stats|annotate|train-hategen|train-retweet|"
      "eval|digest>\n"
      "  generate      --out DIR [--scale F] [--users N] [--seed N]\n"
      "  stats         --data DIR\n"
      "  annotate      --data DIR [--seed N]\n"
      "  train-hategen --data DIR [--seed N]\n"
      "  train-retweet --data DIR [--dynamic] [--no-exo] [--seed N]"
      " [--save-model DIR]\n"
      "  eval          --data DIR --model DIR [--store-dir DIR]\n"
      "  digest        --data DIR [--seed N]\n"
      "every command also accepts:\n"
      "  --store-dir=DIR     eval: serve user history features through the\n"
      "                      disk-backed tiered store (built on first use)\n"
      "  --metrics-out=FILE  dump the run's observability registry\n"
      "                      (counters, latency histograms, trace spans,\n"
      "                      training series, peak RSS) as JSON to FILE and\n"
      "                      print a summary table\n"
      "  --trace-out=FILE    record a per-thread event timeline for the\n"
      "                      whole run and write it as Chrome trace JSON\n"
      "                      (open in chrome://tracing or Perfetto; feed\n"
      "                      with --metrics-out into tools/report.py)\n"
      "  --log-level=LEVEL   stderr log threshold: debug|info|warn|error\n"
      "  --simd=BACKEND      kernel dispatch: auto|avx2|neon|scalar\n"
      "                      (overrides the RETINA_SIMD environment\n"
      "                      variable; scalar reproduces pre-SIMD results\n"
      "                      bit-for-bit)\n");
  return 2;
}

/// One-line Status rejection on stderr. Scripts get a stable nonzero exit
/// and the actual mistake stays visible instead of drowning in the usage
/// text (bare `retina` still prints the full usage).
int RejectArg(const std::string& what) {
  std::fprintf(stderr, "%s\n",
               Status::InvalidArgument(what + " (run 'retina' for usage)")
                   .ToString()
                   .c_str());
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args, int* rc) {
  *rc = 0;
  if (argc < 2) {
    *rc = Usage();
    return false;
  }
  args->command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--out") {
      const char* v = next();
      if (v == nullptr) {
        *rc = RejectArg("flag '" + arg + "' requires a value");
        return false;
      }
      args->out = v;
    } else if (arg == "--data") {
      const char* v = next();
      if (v == nullptr) {
        *rc = RejectArg("flag '" + arg + "' requires a value");
        return false;
      }
      args->data = v;
    } else if (arg == "--scale") {
      const char* v = next();
      if (v == nullptr) {
        *rc = RejectArg("flag '" + arg + "' requires a value");
        return false;
      }
      args->scale = std::atof(v);
    } else if (arg == "--users") {
      const char* v = next();
      if (v == nullptr) {
        *rc = RejectArg("flag '" + arg + "' requires a value");
        return false;
      }
      args->users = static_cast<size_t>(std::atoll(v));
    } else if (arg == "--seed") {
      const char* v = next();
      if (v == nullptr) {
        *rc = RejectArg("flag '" + arg + "' requires a value");
        return false;
      }
      args->seed = static_cast<uint64_t>(std::atoll(v));
    } else if (arg == "--save-model") {
      const char* v = next();
      if (v == nullptr) {
        *rc = RejectArg("flag '" + arg + "' requires a value");
        return false;
      }
      args->save_model = v;
    } else if (arg == "--store-dir") {
      const char* v = next();
      if (v == nullptr) {
        *rc = RejectArg("flag '" + arg + "' requires a value");
        return false;
      }
      args->store_dir = v;
    } else if (arg.rfind("--store-dir=", 0) == 0) {
      args->store_dir = arg.substr(std::strlen("--store-dir="));
    } else if (arg == "--model") {
      const char* v = next();
      if (v == nullptr) {
        *rc = RejectArg("flag '" + arg + "' requires a value");
        return false;
      }
      args->model = v;
    } else if (arg == "--metrics-out") {
      const char* v = next();
      if (v == nullptr) {
        *rc = RejectArg("flag '" + arg + "' requires a value");
        return false;
      }
      args->metrics_out = v;
    } else if (arg.rfind("--metrics-out=", 0) == 0) {
      args->metrics_out = arg.substr(std::strlen("--metrics-out="));
    } else if (arg == "--trace-out") {
      const char* v = next();
      if (v == nullptr) {
        *rc = RejectArg("flag '" + arg + "' requires a value");
        return false;
      }
      args->trace_out = v;
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      args->trace_out = arg.substr(std::strlen("--trace-out="));
    } else if (arg == "--log-level") {
      const char* v = next();
      if (v == nullptr) {
        *rc = RejectArg("flag '" + arg + "' requires a value");
        return false;
      }
      args->log_level = v;
    } else if (arg.rfind("--log-level=", 0) == 0) {
      args->log_level = arg.substr(std::strlen("--log-level="));
    } else if (arg == "--simd") {
      const char* v = next();
      if (v == nullptr) {
        *rc = RejectArg("flag '" + arg + "' requires a value");
        return false;
      }
      args->simd = v;
    } else if (arg.rfind("--simd=", 0) == 0) {
      args->simd = arg.substr(std::strlen("--simd="));
    } else if (arg == "--dynamic") {
      args->dynamic = true;
    } else if (arg == "--no-exo") {
      args->no_exo = true;
    } else {
      *rc = RejectArg("unknown flag '" + arg + "'");
      return false;
    }
  }
  return true;
}

Result<datagen::SyntheticWorld> LoadWorld(const Args& args) {
  if (args.data.empty()) {
    return Status::InvalidArgument("--data DIR is required");
  }
  return datagen::ImportWorldCsv(args.data);
}

Result<core::FeatureExtractor> BuildFeatures(
    const datagen::SyntheticWorld& world, uint64_t seed) {
  core::FeatureConfig fc;
  fc.history_tfidf_dim = 200;
  fc.news_tfidf_dim = 200;
  fc.tweet_tfidf_dim = 200;
  fc.news_window = 60;
  fc.seed = seed;
  return core::FeatureExtractor::Build(world, fc);
}

int CmdGenerate(const Args& args) {
  if (args.out.empty()) {
    std::fprintf(stderr, "generate requires --out DIR\n");
    return 2;
  }
  Stopwatch timer;
  datagen::WorldConfig config;
  config.scale = args.scale;
  config.num_users = args.users;
  const auto world = datagen::SyntheticWorld::Generate(config, args.seed);
  std::printf("generated %zu tweets, %zu users, %zu headlines (%.1fs)\n",
              world.tweets().size(), world.NumUsers(),
              world.news().articles().size(), timer.ElapsedSeconds());
  const Status st = datagen::ExportWorldCsv(world, args.out);
  if (!st.ok()) {
    std::fprintf(stderr, "export failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("exported to %s\n", args.out.c_str());
  return 0;
}

int CmdStats(const Args& args) {
  auto world_result = LoadWorld(args);
  if (!world_result.ok()) {
    std::fprintf(stderr, "%s\n", world_result.status().ToString().c_str());
    return 1;
  }
  const auto& world = world_result.ValueOrDie();
  const auto stats = world.ComputeHashtagStats();
  TableWriter table("", {"hashtag", "tweets", "avg RT", "users",
                         "users-all", "%hate"});
  for (size_t h = 0; h < stats.size(); ++h) {
    table.AddRow({world.hashtags()[h].tag, std::to_string(stats[h].tweets),
                  FormatDouble(stats[h].avg_retweets, 2),
                  std::to_string(stats[h].unique_authors),
                  std::to_string(stats[h].users_all),
                  FormatDouble(stats[h].pct_hate, 2)});
  }
  table.Print();
  return 0;
}

int CmdAnnotate(const Args& args) {
  auto world_result = LoadWorld(args);
  if (!world_result.ok()) {
    std::fprintf(stderr, "%s\n", world_result.status().ToString().c_str());
    return 1;
  }
  auto world = std::move(world_result).ValueOrDie();
  hatedetect::AnnotationOptions opts;
  opts.seed = args.seed;
  auto report = hatedetect::AnnotateWorld(&world, opts);
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
    return 1;
  }
  const auto& r = report.ValueOrDie();
  std::printf("gold tweets:        %zu\n", r.gold_tweets);
  std::printf("krippendorff alpha: %.3f\n", r.krippendorff_alpha);
  std::printf("fine-tuned:         AUC %.3f  macro-F1 %.3f\n",
              r.finetuned_auc, r.finetuned_macro_f1);
  std::printf("pre-trained:        AUC %.3f  macro-F1 %.3f\n",
              r.pretrained_auc, r.pretrained_macro_f1);
  const Status st = datagen::ExportWorldCsv(world, args.data);
  if (!st.ok()) {
    std::fprintf(stderr, "re-export failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("machine labels written back to %s\n", args.data.c_str());
  return 0;
}

int CmdTrainHateGen(const Args& args) {
  auto world_result = LoadWorld(args);
  if (!world_result.ok()) {
    std::fprintf(stderr, "%s\n", world_result.status().ToString().c_str());
    return 1;
  }
  const auto& world = world_result.ValueOrDie();
  auto fx = BuildFeatures(world, args.seed);
  if (!fx.ok()) {
    std::fprintf(stderr, "%s\n", fx.status().ToString().c_str());
    return 1;
  }
  core::HateGenTaskOptions opts;
  opts.seed = args.seed;
  auto task = core::BuildHateGenTask(fx.ValueOrDie(), opts);
  if (!task.ok()) {
    std::fprintf(stderr, "%s\n", task.status().ToString().c_str());
    return 1;
  }
  ml::DecisionTreeOptions topts;
  topts.max_depth = 5;
  ml::DecisionTree tree(topts);
  auto result = core::RunHateGenPipeline(task.ValueOrDie(), &tree,
                                         core::ProcVariant::kDownsample,
                                         args.seed);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  const auto& r = result.ValueOrDie();
  std::printf("hate generation (Dec-Tree + DS): macro-F1 %.3f  ACC %.3f  "
              "AUC %.3f\n",
              r.macro_f1, r.accuracy, r.auc);
  return 0;
}

// The model train-retweet trains: the static head on Adam, the dynamic
// head on SGD with the paper's dynamic lambda.
core::RetinaOptions RetweetModelOptions(bool dynamic, bool use_exogenous,
                                        uint64_t seed) {
  core::RetinaOptions ropts;
  ropts.dynamic = dynamic;
  ropts.use_exogenous = use_exogenous;
  ropts.epochs = 4;
  if (dynamic) {
    ropts.use_adam = false;
    ropts.learning_rate = 1e-3;
    ropts.lambda = 2.5;
  }
  ropts.seed = seed;
  return ropts;
}

int CmdTrainRetweet(const Args& args) {
  auto world_result = LoadWorld(args);
  if (!world_result.ok()) {
    std::fprintf(stderr, "%s\n", world_result.status().ToString().c_str());
    return 1;
  }
  const auto& world = world_result.ValueOrDie();
  auto fx = BuildFeatures(world, args.seed);
  if (!fx.ok()) {
    std::fprintf(stderr, "%s\n", fx.status().ToString().c_str());
    return 1;
  }
  core::RetweetTaskOptions opts;
  opts.seed = args.seed;
  auto task_result = core::BuildRetweetTask(fx.ValueOrDie(), opts);
  if (!task_result.ok()) {
    std::fprintf(stderr, "%s\n", task_result.status().ToString().c_str());
    return 1;
  }
  const auto& task = task_result.ValueOrDie();

  const core::RetinaOptions ropts =
      RetweetModelOptions(args.dynamic, !args.no_exo, args.seed);
  Stopwatch timer;
  core::Retina model(task.user_dim, task.content_dim, task.embed_dim,
                     task.NumIntervals(), ropts);
  const Status st = model.Train(task);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  // Score the test split through the serving engine: batched GEMM forward
  // with per-user feature caching, bit-identical to per-candidate scoring.
  core::ScoringEngine engine(&model, &fx.ValueOrDie());
  obs::Registry& reg = obs::Registry::Global();
  const obs::RegistrySnapshot before = reg.TakeSnapshot();
  Vec scores;
  engine.ScoreCandidatesInto(task, task.test, &scores);
  const obs::RegistrySnapshot served =
      obs::Registry::SnapshotDelta(before, reg.TakeSnapshot());
  const auto count = [&](const char* name) {
    return static_cast<unsigned long long>(served.counters.at(name));
  };
  const auto eval = core::EvaluateBinary(task.test, scores);
  const auto queries = core::MakeRankingQueries(task, task.test, scores);
  std::printf(
      "RETINA-%s%s: macro-F1 %.3f  ACC %.3f  AUC %.3f  MAP@20 %.3f  "
      "HITS@20 %.3f  (train %.1fs)\n",
      args.dynamic ? "D" : "S", args.no_exo ? " [no-exo]" : "",
      eval.macro_f1, eval.accuracy, eval.auc,
      ml::MeanAveragePrecisionAtK(queries, 20), ml::HitsAtK(queries, 20),
      timer.ElapsedSeconds());
  std::printf(
      "  serving: %llu requests, %llu candidates, user cache %llu/%llu "
      "hits (%llu evictions)\n",
      count("serving.requests"), count("serving.candidates"),
      count("serving.user_cache.hits"),
      count("serving.user_cache.hits") + count("serving.user_cache.misses"),
      count("serving.user_cache.evictions"));
  if (!args.save_model.empty()) {
    core::ScoringBundleMeta meta;
    meta.task_seed = args.seed;
    const Status save_st = core::SaveScoringBundle(args.save_model, model,
                                                   fx.ValueOrDie(), meta);
    if (!save_st.ok()) {
      std::fprintf(stderr, "save failed: %s\n", save_st.ToString().c_str());
      return 1;
    }
    std::printf("model saved to %s/%s\n", args.save_model.c_str(),
                core::kModelCheckpointFile);
  }
  return 0;
}

int CmdEval(const Args& args) {
  if (args.model.empty()) {
    std::fprintf(stderr, "eval requires --model DIR\n");
    return 2;
  }
  auto world_result = LoadWorld(args);
  if (!world_result.ok()) {
    std::fprintf(stderr, "%s\n", world_result.status().ToString().c_str());
    return 1;
  }
  const auto& world = world_result.ValueOrDie();
  Stopwatch timer;
  auto bundle_result = core::LoadScoringBundle(args.model, world);
  if (!bundle_result.ok()) {
    std::fprintf(stderr, "%s\n", bundle_result.status().ToString().c_str());
    return 1;
  }
  const auto& bundle = bundle_result.ValueOrDie();
  std::printf("loaded %s/%s (%.1fs)\n", args.model.c_str(),
              core::kModelCheckpointFile, timer.ElapsedSeconds());

  // Rebuild the training-time split from the bundled seed so the test set
  // is the one the saved metrics were computed on.
  core::RetweetTaskOptions opts;
  opts.seed = bundle.meta.task_seed;
  auto task_result = core::BuildRetweetTask(*bundle.extractor, opts);
  if (!task_result.ok()) {
    std::fprintf(stderr, "%s\n", task_result.status().ToString().c_str());
    return 1;
  }
  const auto& task = task_result.ValueOrDie();

  core::ScoringEngine engine(bundle.model.get(), bundle.extractor.get());
  if (!args.store_dir.empty()) {
    // Serve user history blocks through the disk-backed tiered store,
    // building it on first use. Scores are bit-identical with or without
    // the store (the blocks round-trip as f64 bit patterns).
    Status attach = engine.AttachStore(args.store_dir);
    if (!attach.ok()) {
      Stopwatch build_timer;
      Status built = core::ScoringEngine::BuildStore(*bundle.extractor,
                                                     args.store_dir);
      if (!built.ok()) {
        std::fprintf(stderr, "%s\n", built.ToString().c_str());
        return 1;
      }
      attach = engine.AttachStore(args.store_dir);
      if (!attach.ok()) {
        std::fprintf(stderr, "%s\n", attach.ToString().c_str());
        return 1;
      }
      std::printf("built user store %s (%.1fs)\n", args.store_dir.c_str(),
                  build_timer.ElapsedSeconds());
    }
    std::printf("user store: %zu users in %zu blocks\n",
                engine.store()->num_entries(), engine.store()->num_blocks());
  }
  Vec scores;
  engine.ScoreCandidatesInto(task, task.test, &scores);
  const auto eval = core::EvaluateBinary(task.test, scores);
  const auto queries = core::MakeRankingQueries(task, task.test, scores);
  std::printf(
      "RETINA-%s%s (loaded): macro-F1 %.3f  ACC %.3f  AUC %.3f  "
      "MAP@20 %.3f  HITS@20 %.3f\n",
      bundle.model->options().dynamic ? "D" : "S",
      bundle.model->options().use_exogenous ? "" : " [no-exo]",
      eval.macro_f1, eval.accuracy, eval.auc,
      ml::MeanAveragePrecisionAtK(queries, 20), ml::HitsAtK(queries, 20));
  return 0;
}

// ------------------------------------------------------------ digest --

// " name=<hash>": FNV-1a 64 (published basis) over n bytes at data; over
// doubles that is their bit patterns, so equal hashes mean equal bits.
std::string HashField(const char* name, const void* data, size_t n) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), " %s=%016llx", name,
                static_cast<unsigned long long>(
                    Fnv1a64(data, n, kFnv1a64Basis)));
  return buf;
}

std::string HashField(const char* name, const std::vector<double>& v) {
  return HashField(name, v.data(), v.size() * sizeof(double));
}

// Trains one RETINA configuration and hashes what it leaves behind: the
// epoch losses, the test split's scores from the model and from the
// serving engine, RETINA-D's per-interval probabilities, and Save's bytes.
Result<std::string> RetinaDigest(const core::FeatureExtractor& fx,
                                 const core::RetweetTask& task,
                                 const core::RetinaOptions& ropts) {
  core::Retina model(task.user_dim, task.content_dim, task.embed_dim,
                     task.NumIntervals(), ropts);
  RETINA_RETURN_NOT_OK(model.Train(task));
  std::string line = HashField("losses", model.epoch_losses());
  line += HashField("scores", model.ScoreCandidates(task, task.test));
  core::ScoringEngine engine(&model, &fx);
  Vec served;
  engine.ScoreCandidatesInto(task, task.test, &served);
  line += HashField("engine", served);
  if (ropts.dynamic) {
    // PredictDynamicRows over each test tweet group, in split order.
    const size_t J = task.NumIntervals();
    const auto& test = task.test;
    Vec probs(test.size() * J);
    ScratchArena arena;
    std::vector<const double*> rows;
    for (size_t i = 0; i < test.size();) {
      size_t j = i + 1;
      while (j < test.size() && test[j].tweet_pos == test[i].tweet_pos) ++j;
      rows.clear();
      for (size_t s = i; s < j; ++s) {
        rows.push_back(test[s].user_features.data());
      }
      arena.Reset();
      model.PredictDynamicRows(task.tweets[test[i].tweet_pos], rows.data(),
                               j - i, probs.data() + i * J, &arena);
      i = j;
    }
    line += HashField("probs", probs);
  }
  io::Checkpoint ckpt;
  RETINA_RETURN_NOT_OK(model.Save(&ckpt));
  const std::string bytes = ckpt.SerializeToBytes();
  return line + HashField("ckpt", bytes.data(), bytes.size());
}

// Fits one cascade baseline and hashes its fitted rates, the test split's
// scores and the full-population macro-F1.
template <typename Model, typename Rates>
Result<std::string> BaselineDigest(Model* model, const core::RetweetTask& task,
                                   Rates rates) {
  RETINA_RETURN_NOT_OK(model->Fit(task));
  std::string line = HashField("rates", rates(*model));
  line += HashField("scores", model->ScoreCandidates(task, task.test));
  const double f1 = model->FullPopulationMacroF1(task);
  return line + HashField("f1", &f1, sizeof(f1));
}

int CmdDigest(const Args& args) {
  auto world_result = LoadWorld(args);
  if (!world_result.ok()) {
    std::fprintf(stderr, "%s\n", world_result.status().ToString().c_str());
    return 1;
  }
  const auto& world = world_result.ValueOrDie();
  auto fx = BuildFeatures(world, args.seed);
  if (!fx.ok()) {
    std::fprintf(stderr, "%s\n", fx.status().ToString().c_str());
    return 1;
  }
  core::RetweetTaskOptions opts;
  opts.seed = args.seed;
  auto task_result = core::BuildRetweetTask(fx.ValueOrDie(), opts);
  if (!task_result.ok()) {
    std::fprintf(stderr, "%s\n", task_result.status().ToString().c_str());
    return 1;
  }
  const auto& task = task_result.ValueOrDie();

  struct Config {
    std::string name;
    std::function<Result<std::string>()> run;
  };
  std::vector<Config> configs;
  const auto add_retina = [&](const std::string& name, bool dynamic,
                              nn::RecurrentKind kind) {
    for (const bool exo : {true, false}) {
      core::RetinaOptions ropts = RetweetModelOptions(dynamic, exo, args.seed);
      ropts.epochs = 2;
      ropts.recurrent = kind;
      configs.push_back({name + (exo ? "" : " [no-exo]"), [&, ropts] {
                           return RetinaDigest(fx.ValueOrDie(), task, ropts);
                         }});
    }
  };
  add_retina("RETINA-S", false, nn::RecurrentKind::kGru);
  for (const nn::RecurrentKind kind :
       {nn::RecurrentKind::kGru, nn::RecurrentKind::kLstm,
        nn::RecurrentKind::kSimpleRnn}) {
    add_retina(std::string("RETINA-D ") + nn::RecurrentKindName(kind), true,
               kind);
  }
  configs.push_back({"SIR", [&] {
                       diffusion::SirModel sir(&world, {});
                       return BaselineDigest(
                           &sir, task, [](const diffusion::SirModel& m) {
                             return std::vector<double>{m.beta(), m.gamma()};
                           });
                     }});
  configs.push_back({"Threshold", [&] {
                       diffusion::ThresholdModel threshold(&world, {});
                       return BaselineDigest(
                           &threshold, task,
                           [](const diffusion::ThresholdModel& m) {
                             return std::vector<double>{m.influence()};
                           });
                     }});

  // Each configuration at 1 and at 4 threads; DIGEST hashes the printed
  // lines, so it changes with any configuration's bits.
  uint64_t digest = kFnv1a64Basis;
  bool agree = true;
  for (const Config& config : configs) {
    Stopwatch timer;
    par::SetNumThreads(1);
    const Result<std::string> one = config.run();
    const double one_s = timer.ElapsedSeconds();
    par::SetNumThreads(4);
    const Result<std::string> four = config.run();
    std::fprintf(stderr, "%s: %.1fs at 1 thread, %.1fs at 4\n",
                 config.name.c_str(), one_s, timer.ElapsedSeconds() - one_s);
    for (const Result<std::string>* run : {&one, &four}) {
      if (!run->ok()) {
        std::fprintf(stderr, "%s: %s\n", config.name.c_str(),
                     run->status().ToString().c_str());
        return 1;
      }
    }
    std::string line = config.name + ":" + one.ValueOrDie();
    if (one.ValueOrDie() != four.ValueOrDie()) {
      agree = false;
      line += "  MISMATCH at 4 threads:" + four.ValueOrDie();
    }
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
    digest = Fnv1a64(line.data(), line.size(), digest);
    digest = Fnv1a64("\n", 1, digest);
  }
  std::printf("DIGEST %016llx\n", static_cast<unsigned long long>(digest));
  return agree ? 0 : 1;
}

int RunCommand(const Args& args) {
  if (args.command == "generate") return CmdGenerate(args);
  if (args.command == "stats") return CmdStats(args);
  if (args.command == "annotate") return CmdAnnotate(args);
  if (args.command == "train-hategen") return CmdTrainHateGen(args);
  if (args.command == "train-retweet") return CmdTrainRetweet(args);
  if (args.command == "eval") return CmdEval(args);
  if (args.command == "digest") return CmdDigest(args);
  return RejectArg("unknown command '" + args.command + "'");
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  int parse_rc = 0;
  if (!ParseArgs(argc, argv, &args, &parse_rc)) return parse_rc;
  if (!args.log_level.empty()) {
    retina::LogLevel level;
    if (!retina::ParseLogLevel(args.log_level, &level)) {
      std::fprintf(stderr, "bad --log-level: %s (want debug|info|warn|error)\n",
                   args.log_level.c_str());
      return 2;
    }
    retina::SetLogLevel(level);
  }
  if (!args.simd.empty()) {
    simd::Backend backend;
    if (!simd::ParseBackend(args.simd, &backend)) {
      std::fprintf(stderr, "bad --simd: %s (want auto|avx2|neon|scalar)\n",
                   args.simd.c_str());
      return 2;
    }
    const Status forced = simd::ForceBackend(backend);
    if (!forced.ok()) {
      std::fprintf(stderr, "--simd=%s: %s\n", args.simd.c_str(),
                   forced.ToString().c_str());
      return 2;
    }
  }
  if (!args.trace_out.empty()) obs::StartTracing();
  const int rc = RunCommand(args);
  if (rc != 0) return rc;
  // End-of-run observability exports (shared with retina_serve and
  // load_driver): registry JSON + summary table, then the Chrome trace of
  // the whole run. No-ops when the flags are unset.
  const Status metrics_st = obs::ExportMetricsJson(args.metrics_out);
  if (!metrics_st.ok()) {
    std::fprintf(stderr, "%s\n", metrics_st.ToString().c_str());
    return 1;
  }
  const Status trace_st = obs::ExportChromeTrace(args.trace_out);
  if (!trace_st.ok()) {
    std::fprintf(stderr, "%s\n", trace_st.ToString().c_str());
    return 1;
  }
  return 0;
}
