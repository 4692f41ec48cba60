// Google-benchmark micro-benchmarks for the computational kernels: the
// exogenous attention block, GRU cell, BFS on the follower graph, tf-idf
// transforms, Doc2Vec inference and world generation.
//
// The binary also runs a scalar-vs-dispatched comparison over every
// retina::simd kernel (dense sizes 16/64/256/1024 plus tf-idf-shaped
// sparse cases) and writes it as BENCH_kernels.json — dispatch metadata
// included — for tools/check_bench.py's kernel speedup floors.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "common/simd.h"
#include "common/sparse_vec.h"
#include "common/thread_pool.h"
#include "datagen/world.h"
#include "graph/generators.h"
#include "nn/attention.h"
#include "nn/param_registry.h"
#include "nn/recurrent.h"
#include "text/doc2vec.h"
#include "text/tfidf.h"

namespace {

using namespace retina;

// Replays the Glorot init the old Rng-taking constructors performed.
template <typename LayerT>
void InitLayer(LayerT* layer, Rng* rng) {
  nn::ParamRegistry reg;
  layer->RegisterParams(&reg, "layer");
  reg.InitGlorot(rng);
}

void BM_AttentionForward(benchmark::State& state) {
  Rng rng(1);
  const size_t seq = static_cast<size_t>(state.range(0));
  nn::ExogenousAttention att(50, 50, 64);
  InitLayer(&att, &rng);
  Vec tweet(50);
  for (double& v : tweet) v = rng.Normal();
  Matrix news(seq, 50);
  for (double& v : news.data()) v = rng.Normal();
  for (auto _ : state) {
    benchmark::DoNotOptimize(att.Forward(tweet, news, nullptr));
  }
  state.SetItemsProcessed(state.iterations() * seq);
}
BENCHMARK(BM_AttentionForward)->Arg(15)->Arg(60)->Arg(240);

void BM_AttentionBackward(benchmark::State& state) {
  Rng rng(2);
  const size_t seq = static_cast<size_t>(state.range(0));
  nn::ExogenousAttention att(50, 50, 64);
  InitLayer(&att, &rng);
  Vec tweet(50), dout(64);
  for (double& v : tweet) v = rng.Normal();
  for (double& v : dout) v = rng.Normal();
  Matrix news(seq, 50);
  for (double& v : news.data()) v = rng.Normal();
  nn::AttentionCache cache;
  (void)att.Forward(tweet, news, &cache);
  for (auto _ : state) {
    att.Backward(cache, dout);
  }
  state.SetItemsProcessed(state.iterations() * seq);
}
BENCHMARK(BM_AttentionBackward)->Arg(60);

// Fixed-size dispatch overhead of the execution layer: an empty body over
// state.range(0) items on a pool of state.range(1) threads.
void BM_ParallelForOverhead(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  par::ThreadPool pool(static_cast<size_t>(state.range(1)));
  for (auto _ : state) {
    par::ParallelFor(n, 1, [](size_t) {}, &pool);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ParallelForOverhead)
    ->Args({1024, 1})
    ->Args({1024, 2})
    ->Args({1024, 4})
    ->Args({1024, 8});

// A batch of attention forwards — the per-candidate scoring shape — run
// serially (threads == 1) vs on a pool (threads > 1).
void BM_AttentionBatchForward(benchmark::State& state) {
  Rng rng(9);
  const size_t batch = 64;
  par::ThreadPool pool(static_cast<size_t>(state.range(0)));
  nn::ExogenousAttention att(50, 50, 64);
  InitLayer(&att, &rng);
  std::vector<Vec> tweets(batch, Vec(50));
  for (auto& t : tweets) {
    for (double& v : t) v = rng.Normal();
  }
  Matrix news(60, 50);
  for (double& v : news.data()) v = rng.Normal();
  std::vector<Vec> out(batch);
  for (auto _ : state) {
    par::ParallelFor(
        batch, 4,
        [&](size_t i) { out[i] = att.Forward(tweets[i], news, nullptr); },
        &pool);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_AttentionBatchForward)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// Dense kernels across the naive/blocked crossover: MatMul switches to the
// transposed-B register-blocked path above 16K mul-adds, so Arg(16) runs
// the naive kernel and the larger sizes the blocked one.
void BM_MatMul(benchmark::State& state) {
  Rng rng(10);
  const size_t n = static_cast<size_t>(state.range(0));
  Matrix a(n, n), b(n, n);
  for (double& v : a.data()) v = rng.Normal();
  for (double& v : b.data()) v = rng.Normal();
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.MatMul(b));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMul)->Arg(16)->Arg(64)->Arg(128)->Arg(256);

void BM_MatVec(benchmark::State& state) {
  Rng rng(11);
  const size_t n = static_cast<size_t>(state.range(0));
  Matrix a(n, n);
  for (double& v : a.data()) v = rng.Normal();
  Vec x(n);
  for (double& v : x) v = rng.Normal();
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.MatVec(x));
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_MatVec)->Arg(64)->Arg(256);

void BM_GruStep(benchmark::State& state) {
  Rng rng(3);
  nn::GruCell gru(130, 64);
  InitLayer(&gru, &rng);
  Vec x(130), h(64, 0.0);
  for (double& v : x) v = rng.Normal();
  for (auto _ : state) {
    benchmark::DoNotOptimize(gru.Forward(x, h, nullptr));
  }
}
BENCHMARK(BM_GruStep);

void BM_BfsDistances(benchmark::State& state) {
  Rng rng(4);
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<Vec> interests(n);
  for (auto& v : interests) v = rng.Dirichlet(10, 0.3);
  std::vector<int> echo(n, -1);
  const auto net =
      graph::GenerateFollowerNetwork(interests, echo, {}, &rng);
  graph::NodeId src = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.BfsDistances(src, 4));
    src = (src + 1) % static_cast<graph::NodeId>(n);
  }
  state.SetItemsProcessed(state.iterations() * net.NumEdges());
}
BENCHMARK(BM_BfsDistances)->Arg(2000)->Arg(8000);

void BM_TfIdfTransform(benchmark::State& state) {
  Rng rng(5);
  std::vector<std::vector<std::string>> docs;
  for (int i = 0; i < 2000; ++i) {
    std::vector<std::string> d;
    for (int w = 0; w < 14; ++w) {
      d.push_back("w" + std::to_string(rng.UniformInt(800)));
    }
    docs.push_back(std::move(d));
  }
  text::TfIdfOptions opts;
  opts.max_features = 300;
  text::TfIdfVectorizer tfidf(opts);
  if (!tfidf.Fit(docs).ok()) state.SkipWithError("fit failed");
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tfidf.Transform(docs[i % docs.size()]));
    ++i;
  }
}
BENCHMARK(BM_TfIdfTransform);

void BM_Doc2VecInfer(benchmark::State& state) {
  Rng rng(6);
  std::vector<std::vector<std::string>> docs;
  for (int i = 0; i < 500; ++i) {
    std::vector<std::string> d;
    for (int w = 0; w < 14; ++w) {
      d.push_back("w" + std::to_string(rng.UniformInt(300)));
    }
    docs.push_back(std::move(d));
  }
  text::Doc2VecOptions opts;
  opts.dim = 50;
  opts.epochs = 3;
  text::Doc2Vec model(opts);
  if (!model.Train(docs).ok()) state.SkipWithError("train failed");
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.InferVector(docs[i % docs.size()], 8));
    ++i;
  }
}
BENCHMARK(BM_Doc2VecInfer);

void BM_WorldGenerate(benchmark::State& state) {
  datagen::WorldConfig config;
  config.scale = 0.02;
  config.num_users = 400;
  config.history_length = 8;
  config.news_per_day = 30.0;
  uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(datagen::SyntheticWorld::Generate(config, seed));
    ++seed;
  }
}
BENCHMARK(BM_WorldGenerate)->Unit(benchmark::kMillisecond);

// --------------------------------------------------------------------------
// simd kernel dispatch benchmarks: the same dispatched entry points the
// library's hot loops call, at the library's characteristic sizes.

void BM_SimdDot(benchmark::State& state) {
  Rng rng(20);
  const size_t n = static_cast<size_t>(state.range(0));
  Vec a(n), b(n);
  for (double& v : a) v = rng.Normal();
  for (double& v : b) v = rng.Normal();
  for (auto _ : state) {
    benchmark::DoNotOptimize(simd::Dot(a.data(), b.data(), n));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SimdDot)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

void BM_SimdAxpy(benchmark::State& state) {
  Rng rng(21);
  const size_t n = static_cast<size_t>(state.range(0));
  Vec x(n), y(n);
  for (double& v : x) v = rng.Normal();
  for (double& v : y) v = rng.Normal();
  for (auto _ : state) {
    simd::Axpy(1.0009765625, x.data(), y.data(), n);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SimdAxpy)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

void BM_SimdSparseDot(benchmark::State& state) {
  Rng rng(22);
  const size_t dim = static_cast<size_t>(state.range(0));
  const size_t nnz = static_cast<size_t>(state.range(1));
  SparseVec x(dim);
  for (size_t k = 0; k < nnz; ++k) {
    x.PushBack(k * dim / nnz, rng.Normal());
  }
  Vec y(dim);
  for (double& v : y) v = rng.Normal();
  for (auto _ : state) {
    benchmark::DoNotOptimize(simd::SparseDot(
        x.values().data(), x.indices().data(), x.nnz(), y.data()));
  }
  state.SetItemsProcessed(state.iterations() * nnz);
}
// 300-dim tf-idf block with ~24 active tokens, and a denser large case.
BENCHMARK(BM_SimdSparseDot)->Args({300, 24})->Args({1024, 256});

// --------------------------------------------------------------------------
// Scalar-vs-active kernel comparison report (BENCH_kernels.json).

// Best-of-reps nanoseconds per call of `fn`, auto-scaling the inner
// iteration count until one repetition runs long enough to time reliably.
double TimeNsPerCall(const std::function<void()>& fn, bool smoke) {
  fn();  // warm up caches and the dispatch table
  const double target_ns = smoke ? 2e5 : 2e6;
  const int reps = smoke ? 2 : 3;
  double best = 1e300;
  size_t iters = 1;
  for (int rep = 0; rep < reps; ++rep) {
    for (;;) {
      const auto t0 = std::chrono::steady_clock::now();
      for (size_t i = 0; i < iters; ++i) fn();
      const double dt = std::chrono::duration<double, std::nano>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
      if (dt >= target_ns) {
        best = std::min(best, dt / static_cast<double>(iters));
        break;
      }
      iters *= 2;
    }
  }
  return best;
}

struct KernelCase {
  size_t size;  // dense dimensionality of the case
  size_t work;  // effective work size the floors key on (nnz for sparse)
  double scalar_ns;
  double active_ns;
};

struct KernelReport {
  std::string name;
  std::vector<KernelCase> cases;
};

// One case timed against both tables. `run(table)` must execute the kernel
// exactly once against pre-built inputs.
KernelCase TimeCase(size_t size, bool smoke,
                    const std::function<void(const simd::KernelTable&)>& run) {
  const simd::KernelTable& scalar =
      simd::KernelsFor(simd::Backend::kScalar);
  const simd::KernelTable& active = simd::Kernels();
  KernelCase c;
  c.size = size;
  c.work = size;
  c.scalar_ns = TimeNsPerCall([&] { run(scalar); }, smoke);
  c.active_ns = TimeNsPerCall([&] { run(active); }, smoke);
  return c;
}

std::vector<KernelReport> RunKernelComparison(bool smoke) {
  Rng rng(40);
  std::vector<KernelReport> reports;
  const std::vector<size_t> sizes = {16, 64, 256, 1024};

  const size_t kMax = 1024;
  Vec a(kMax), b(kMax), y(kMax);
  for (double& v : a) v = rng.Normal();
  for (double& v : b) v = rng.Normal();
  for (double& v : y) v = rng.Normal();
  // Scale factor ~1 so repeated in-place axpy/scale calls stay finite.
  const double alpha = 1.0000001;

  KernelReport dot{"dot", {}};
  KernelReport axpy{"axpy", {}};
  KernelReport scale{"scale", {}};
  KernelReport norm2{"norm2", {}};
  for (size_t n : sizes) {
    dot.cases.push_back(TimeCase(n, smoke, [&](const simd::KernelTable& t) {
      benchmark::DoNotOptimize(t.dot(a.data(), b.data(), n));
    }));
    axpy.cases.push_back(TimeCase(n, smoke, [&](const simd::KernelTable& t) {
      t.axpy(alpha, a.data(), y.data(), n);
      benchmark::DoNotOptimize(y.data());
    }));
    scale.cases.push_back(
        TimeCase(n, smoke, [&](const simd::KernelTable& t) {
          t.scale(alpha, y.data(), n);
          benchmark::DoNotOptimize(y.data());
        }));
    norm2.cases.push_back(
        TimeCase(n, smoke, [&](const simd::KernelTable& t) {
          benchmark::DoNotOptimize(t.dot(a.data(), a.data(), n));
        }));
  }
  reports.push_back(std::move(dot));
  reports.push_back(std::move(axpy));
  reports.push_back(std::move(scale));
  reports.push_back(std::move(norm2));

  // Matrix drivers go through the dispatched dot per output entry; time
  // them end-to-end by forcing the backend around the driver call.
  // (ForceBackend is cheap — it swaps a pointer — and this binary is
  // single-threaded.)
  {
    KernelReport matmul{"matmul_transposed_b", {}};
    for (size_t n : {16u, 64u, 256u}) {
      Matrix A(n, n), Bt(n, n), C(n, n);
      Rng mrng(41);
      for (double& v : A.data()) v = mrng.Normal();
      for (double& v : Bt.data()) v = mrng.Normal();
      const simd::Backend active = simd::Active();
      KernelCase c;
      c.size = n;
      c.work = n;
      (void)simd::ForceBackend(simd::Backend::kScalar);
      c.scalar_ns = TimeNsPerCall(
          [&] {
            simd::MatMulTransposedB(A.Row(0), n, n, Bt.Row(0), n, C.Row(0));
            benchmark::DoNotOptimize(C.Row(0));
          },
          smoke);
      (void)simd::ForceBackend(active);
      c.active_ns = TimeNsPerCall(
          [&] {
            simd::MatMulTransposedB(A.Row(0), n, n, Bt.Row(0), n, C.Row(0));
            benchmark::DoNotOptimize(C.Row(0));
          },
          smoke);
      matmul.cases.push_back(c);
    }
    reports.push_back(std::move(matmul));
  }

  // tf-idf-shaped sparsity: a 300-dim block with ~24 active tokens, plus a
  // denser 1024-dim case. The recorded "size" is the dense dimensionality;
  // the recorded "work" (what the floors key on) is the nonzero count.
  {
    KernelReport sdot{"sparse_dot", {}};
    KernelReport saxpy{"sparse_axpy", {}};
    KernelReport smv{"sparse_matvec", {}};
    const std::vector<std::pair<size_t, size_t>> shapes = {{300, 24},
                                                           {1024, 256}};
    for (const auto& [dim, nnz] : shapes) {
      SparseVec x(dim);
      Rng srng(42);
      for (size_t k = 0; k < nnz; ++k) {
        x.PushBack(k * dim / nnz, srng.Normal());
      }
      Vec dense(dim);
      for (double& v : dense) v = srng.Normal();
      sdot.cases.push_back(
          TimeCase(dim, smoke, [&](const simd::KernelTable& t) {
            benchmark::DoNotOptimize(t.sparse_dot(
                x.values().data(), x.indices().data(), x.nnz(),
                dense.data()));
          }));
      sdot.cases.back().work = nnz;
      Vec acc(dim, 0.0);
      saxpy.cases.push_back(
          TimeCase(dim, smoke, [&](const simd::KernelTable& t) {
            t.sparse_axpy(alpha, x.values().data(), x.indices().data(),
                          x.nnz(), acc.data());
            benchmark::DoNotOptimize(acc.data());
          }));
      saxpy.cases.back().work = nnz;
      const size_t rows = 64;
      Matrix W(rows, dim);
      for (double& v : W.data()) v = srng.Normal();
      Vec out(rows);
      const simd::Backend active = simd::Active();
      KernelCase c;
      c.size = dim;
      c.work = nnz;
      (void)simd::ForceBackend(simd::Backend::kScalar);
      c.scalar_ns = TimeNsPerCall(
          [&] {
            simd::SparseMatVec(W.Row(0), rows, dim, x.values().data(),
                               x.indices().data(), x.nnz(), out.data());
            benchmark::DoNotOptimize(out.data());
          },
          smoke);
      (void)simd::ForceBackend(active);
      c.active_ns = TimeNsPerCall(
          [&] {
            simd::SparseMatVec(W.Row(0), rows, dim, x.values().data(),
                               x.indices().data(), x.nnz(), out.data());
            benchmark::DoNotOptimize(out.data());
          },
          smoke);
      smv.cases.push_back(c);
    }
    reports.push_back(std::move(sdot));
    reports.push_back(std::move(saxpy));
    reports.push_back(std::move(smv));
  }
  return reports;
}

int WriteKernelReport(bool smoke) {
  const std::vector<KernelReport> reports = RunKernelComparison(smoke);
  const char* out_path = "BENCH_kernels.json";
  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path);
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"dispatch\": \"%s\",\n",
               simd::BackendName(simd::Active()));
  std::fprintf(f, "  \"detected\": \"%s\",\n",
               simd::BackendName(simd::Detect()));
  std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(f, "  \"kernels\": {\n");
  for (size_t r = 0; r < reports.size(); ++r) {
    const KernelReport& rep = reports[r];
    std::fprintf(f, "    \"%s\": {\n      \"sizes\": [", rep.name.c_str());
    for (size_t i = 0; i < rep.cases.size(); ++i) {
      std::fprintf(f, "%s%zu", i ? ", " : "", rep.cases[i].size);
    }
    std::fprintf(f, "],\n      \"work\": [");
    for (size_t i = 0; i < rep.cases.size(); ++i) {
      std::fprintf(f, "%s%zu", i ? ", " : "", rep.cases[i].work);
    }
    std::fprintf(f, "],\n      \"scalar_ns\": [");
    for (size_t i = 0; i < rep.cases.size(); ++i) {
      std::fprintf(f, "%s%.1f", i ? ", " : "", rep.cases[i].scalar_ns);
    }
    std::fprintf(f, "],\n      \"active_ns\": [");
    for (size_t i = 0; i < rep.cases.size(); ++i) {
      std::fprintf(f, "%s%.1f", i ? ", " : "", rep.cases[i].active_ns);
    }
    std::fprintf(f, "],\n      \"speedup\": [");
    for (size_t i = 0; i < rep.cases.size(); ++i) {
      const KernelCase& c = rep.cases[i];
      std::fprintf(f, "%s%.3f", i ? ", " : "",
                   c.active_ns > 0.0 ? c.scalar_ns / c.active_ns : 0.0);
    }
    std::fprintf(f, "]\n    }%s\n", r + 1 < reports.size() ? "," : "");
  }
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
  std::fprintf(stderr, "[bench] kernel dispatch=%s report -> %s\n",
               simd::BackendName(simd::Active()), out_path);
  return 0;
}

}  // namespace

// BENCHMARK_MAIN rejects unknown flags, so the smoke-harness contract
// (`<bench> --smoke` must run end-to-end quickly) is honored by a custom
// main that translates --smoke into a minimal measurement time before the
// standard benchmark initialization.
int main(int argc, char** argv) {
  std::vector<char*> args;
  bool smoke = false;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      args.push_back(argv[i]);
    }
  }
  static char min_time[] = "--benchmark_min_time=0.01";
  if (smoke) args.push_back(min_time);
  int n = static_cast<int>(args.size());
  args.push_back(nullptr);
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  return WriteKernelReport(smoke);
}
