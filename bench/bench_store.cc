// Tiered user feature store bench: per-lookup latency of the three tiers.
//
// Builds a disk-backed store (store/feature_store.h) over every EVEN user
// id of a bench world, so odd ids are in-range absent users — the case the
// per-block Bloom filters exist for. Reports median ns per lookup for:
//   cold     — fresh FeatureStore::Open, stored users in shuffled order
//              (pays mmap faults, per-block checksum verification on first
//              touch, and the block decode)
//   warm     — the serving LRU in front of the store (LruCache::Get on a
//              preloaded cache), the steady state of a hot working set
//   absent   — odd ids against the open store: index binary search plus a
//              Bloom probe, no block bytes touched
//   compute  — FeatureExtractor::ComputeHistoryBlock, the tier the store
//              replaces
// plus the Bloom filter's observed skip/false-positive counts. Every
// stored block is asserted bit-identical to the in-process computation
// before any timing (doubles round-trip as IEEE-754 bit patterns).
//
// Writes BENCH_store.json; tools/check_bench.py gates the
// warm-vs-cold and absent-vs-cold speedups against tools/bench_floors.json
// (ratios, not absolutes — CI containers vary).
//
// Flags: bench_common.h standard set; --reps=<n> (default 5, median).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "common/lru_cache.h"
#include "common/obs.h"
#include "common/rng.h"
#include "common/sparse_vec.h"
#include "common/stopwatch.h"
#include "store/feature_store.h"

namespace retina::bench {
namespace {

double Median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return xs[xs.size() / 2];
}

}  // namespace
}  // namespace retina::bench

int main(int argc, char** argv) {
  using namespace retina;
  using namespace retina::bench;

  int reps = 5;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--reps=", 7) == 0) reps = std::atoi(argv[i] + 7);
  }
  if (reps < 1) reps = 1;

  BenchFlags flags = ParseFlags(argc, argv, /*default_scale=*/0.04,
                                /*default_users=*/1200);
  BenchWorld bw = MakeBenchWorld(flags, /*feature_dim=*/200,
                                 /*news_window=*/40);
  const core::FeatureExtractor& fx = *bw.extractor;
  const size_t n_users = bw.world.NumUsers();

  // Store every even user id; odd ids become in-range absent lookups that
  // must be answered by the Bloom filter, not the block range index.
  std::vector<uint64_t> stored, absent;
  for (size_t u = 0; u < n_users; ++u) {
    (u % 2 == 0 ? stored : absent).push_back(u);
  }

  const std::string store_dir = "bench_store_data";
  Stopwatch build_timer;
  {
    auto builder = store::FeatureStoreBuilder::Create(
        store_dir, fx.HistoryBlockDim());
    if (!builder.ok()) {
      std::fprintf(stderr, "builder create failed: %s\n",
                   builder.status().ToString().c_str());
      return 1;
    }
    for (uint64_t u : stored) {
      const SparseVec block = SparseVec::FromDense(
          fx.ComputeHistoryBlock(static_cast<core::NodeId>(u)));
      if (!builder.ValueOrDie()->Add(u, block).ok()) {
        std::fprintf(stderr, "builder add failed at user %llu\n",
                     static_cast<unsigned long long>(u));
        return 1;
      }
    }
    const Status st = builder.ValueOrDie()->Finish();
    if (!st.ok()) {
      std::fprintf(stderr, "builder finish failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
  }
  std::fprintf(stderr, "[bench] store built: %zu users (%.1fs)\n",
               stored.size(), build_timer.ElapsedSeconds());

  // Correctness gate before any timing: every stored block must decode to
  // exactly the SparseVec the extractor computes in process.
  size_t blocks = 0;
  double bits_per_key = 0.0;
  {
    auto opened = store::FeatureStore::Open(store_dir);
    if (!opened.ok()) {
      std::fprintf(stderr, "open failed: %s\n",
                   opened.status().ToString().c_str());
      return 1;
    }
    const auto& s = opened.ValueOrDie();
    blocks = s->num_blocks();
    bits_per_key = s->bits_per_key();
    for (uint64_t u : stored) {
      SparseVec got;
      store::LookupOutcome outcome;
      if (!s->Lookup(u, &got, &outcome).ok() ||
          outcome != store::LookupOutcome::kFound) {
        std::fprintf(stderr, "FATAL: stored user %llu not found\n",
                     static_cast<unsigned long long>(u));
        return 1;
      }
      const SparseVec want = SparseVec::FromDense(
          fx.ComputeHistoryBlock(static_cast<core::NodeId>(u)));
      if (got.dim() != want.dim() || got.indices() != want.indices() ||
          got.values() != want.values()) {
        std::fprintf(stderr, "FATAL: user %llu diverged from compute\n",
                     static_cast<unsigned long long>(u));
        return 1;
      }
    }
  }

  // Cold tier: fresh Open per rep, one shuffled pass over the stored
  // users. First touch per block pays the checksum scan; later lookups in
  // the same block amortize it — the honest steady cost of a cold tier.
  std::vector<double> cold_samples;
  for (int r = 0; r < reps; ++r) {
    auto opened = store::FeatureStore::Open(store_dir);
    if (!opened.ok()) return 1;
    const auto& s = opened.ValueOrDie();
    std::vector<uint64_t> order = stored;
    Rng rng(flags.seed + static_cast<uint64_t>(r));
    rng.Shuffle(&order);
    SparseVec out;
    store::LookupOutcome outcome;
    Stopwatch sw;
    for (uint64_t u : order) {
      if (!s->Lookup(u, &out, &outcome).ok()) return 1;
    }
    cold_samples.push_back(sw.ElapsedSeconds() * 1e9 /
                           static_cast<double>(order.size()));
  }
  const double cold_ns = Median(cold_samples);

  // Warm tier: the LRU in front of the store, preloaded and large enough
  // to hold the working set (every Get hits).
  const size_t warm_passes = 50;
  double warm_ns = 0.0;
  {
    LruCache<uint64_t, SparseVec> cache(stored.size());
    auto opened = store::FeatureStore::Open(store_dir);
    if (!opened.ok()) return 1;
    const auto& s = opened.ValueOrDie();
    for (uint64_t u : stored) {
      SparseVec out;
      store::LookupOutcome outcome;
      if (!s->Lookup(u, &out, &outcome).ok()) return 1;
      cache.Put(u, std::move(out));
    }
    std::vector<double> samples;
    for (int r = 0; r < reps; ++r) {
      Stopwatch sw;
      for (size_t p = 0; p < warm_passes; ++p) {
        for (uint64_t u : stored) {
          if (cache.Get(u) == nullptr) return 1;
        }
      }
      samples.push_back(sw.ElapsedSeconds() * 1e9 /
                        static_cast<double>(warm_passes * stored.size()));
    }
    warm_ns = Median(samples);
  }

  // Absent tier: odd ids against an open store. The Bloom filter answers
  // without touching block bytes (modulo its false-positive rate).
  const size_t absent_passes = 50;
  double absent_ns = 0.0;
  uint64_t bloom_skips = 0, bloom_fps = 0;
  {
    auto opened = store::FeatureStore::Open(store_dir);
    if (!opened.ok()) return 1;
    const auto& s = opened.ValueOrDie();
    // The store counts its lookup outcomes in the obs registry only.
    obs::Registry& reg = obs::Registry::Global();
    const obs::RegistrySnapshot before = reg.TakeSnapshot();
    std::vector<double> samples;
    SparseVec out;
    store::LookupOutcome outcome;
    for (int r = 0; r < reps; ++r) {
      Stopwatch sw;
      for (size_t p = 0; p < absent_passes; ++p) {
        for (uint64_t u : absent) {
          if (!s->Lookup(u, &out, &outcome).ok()) return 1;
          if (outcome == store::LookupOutcome::kFound) {
            std::fprintf(stderr, "FATAL: absent user %llu found\n",
                         static_cast<unsigned long long>(u));
            return 1;
          }
        }
      }
      samples.push_back(sw.ElapsedSeconds() * 1e9 /
                        static_cast<double>(absent_passes * absent.size()));
    }
    absent_ns = Median(samples);
    const obs::RegistrySnapshot delta =
        obs::Registry::SnapshotDelta(before, reg.TakeSnapshot());
    bloom_skips = delta.counters.at("store.bloom.skips");
    bloom_fps = delta.counters.at("store.bloom.false_positives");
  }

  // The tier the store replaces: full in-process recomputation.
  double compute_ns = 0.0;
  {
    std::vector<double> samples;
    for (int r = 0; r < reps; ++r) {
      Stopwatch sw;
      for (uint64_t u : stored) {
        const SparseVec block = SparseVec::FromDense(
            fx.ComputeHistoryBlock(static_cast<core::NodeId>(u)));
        (void)block;
      }
      samples.push_back(sw.ElapsedSeconds() * 1e9 /
                        static_cast<double>(stored.size()));
    }
    compute_ns = Median(samples);
  }

  const double probes = static_cast<double>(bloom_skips + bloom_fps);
  const double fp_rate =
      probes > 0.0 ? static_cast<double>(bloom_fps) / probes : 0.0;
  std::printf("cold    %10.0f ns/lookup\n", cold_ns);
  std::printf("warm    %10.0f ns/lookup   (%.1fx vs cold)\n", warm_ns,
              warm_ns > 0.0 ? cold_ns / warm_ns : 0.0);
  std::printf("absent  %10.0f ns/lookup   (%.1fx vs cold)\n", absent_ns,
              absent_ns > 0.0 ? cold_ns / absent_ns : 0.0);
  std::printf("compute %10.0f ns/lookup\n", compute_ns);
  std::printf("bloom   %llu skips, %llu false positives (fp rate %.4f)\n",
              static_cast<unsigned long long>(bloom_skips),
              static_cast<unsigned long long>(bloom_fps), fp_rate);

  const char* out_path = "BENCH_store.json";
  FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path);
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"hardware_concurrency\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"smoke\": %s,\n", flags.smoke ? "true" : "false");
  std::fprintf(f, "  \"reps\": %d,\n", reps);
  std::fprintf(f, "  \"users\": %zu,\n", n_users);
  std::fprintf(f, "  \"stored_users\": %zu,\n", stored.size());
  std::fprintf(f, "  \"blocks\": %zu,\n", blocks);
  std::fprintf(f, "  \"bits_per_key\": %.2f,\n", bits_per_key);
  std::fprintf(f, "  \"cold_ns_per_lookup\": %.1f,\n", cold_ns);
  std::fprintf(f, "  \"warm_ns_per_lookup\": %.1f,\n", warm_ns);
  std::fprintf(f, "  \"absent_ns_per_lookup\": %.1f,\n", absent_ns);
  std::fprintf(f, "  \"compute_ns_per_lookup\": %.1f,\n", compute_ns);
  std::fprintf(f, "  \"warm_speedup_vs_cold\": %.3f,\n",
               warm_ns > 0.0 ? cold_ns / warm_ns : 0.0);
  std::fprintf(f, "  \"absent_speedup_vs_cold\": %.3f,\n",
               absent_ns > 0.0 ? cold_ns / absent_ns : 0.0);
  std::fprintf(f, "  \"bloom\": {\n");
  std::fprintf(f, "    \"skips\": %llu,\n",
               static_cast<unsigned long long>(bloom_skips));
  std::fprintf(f, "    \"false_positives\": %llu,\n",
               static_cast<unsigned long long>(bloom_fps));
  std::fprintf(f, "    \"fp_rate\": %.6f\n", fp_rate);
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path);
  return 0;
}
