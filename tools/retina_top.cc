// retina_top — a terminal monitor for a live retina_serve daemon.
//
//   retina_top --connect URI [--interval SECS] [--once] [--window N]
//
// Polls the daemon's kMetricsRequest wire command (a typed snapshot of
// the obs registry, the daemon's one record of its counts) on a fresh
// connection each interval, through the shared client in serve/client.h
// — exactly the way a human would run `top`: no agent, no sidecar, just
// the wire protocol the daemon already speaks. Rates (QPS, shed/s) are
// deltas between two consecutive snapshots divided by the poll interval;
// windowed p50/p95/p99 come straight from the daemon's windowed
// histograms, so they describe the recent past (the last few
// metrics-cadence ticks), not the whole run.
//
// Interactive mode redraws a plain-ANSI table each interval (no
// ncurses; works in any terminal and in CI logs). --once takes exactly
// two samples one interval apart and prints "key value" lines for
// scripting — the serve e2e asserts on its qps line.
//
// The monitor is an observer with the same contract as the rest of
// retina::obs: it sends read-only metrics frames and never perturbs
// scoring. Counters and gauges count in every build, so with obs
// compiled out the qps/shed/queue/cache rows stay live; only the windowed
// quantile rows, which need histograms, read zero.

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "common/obs.h"
#include "common/status.h"
#include "serve/client.h"

namespace {

using namespace retina;
using serve::Target;
using serve::ValueOr;

struct Args {
  Target target;
  double interval = 1.0;
  bool once = false;
};

int Usage() {
  std::fprintf(
      stderr,
      "usage: retina_top --connect URI [options]\n"
      "  --connect URI     unix:PATH, tcp:HOST:PORT, or a bare filesystem\n"
      "                    path (treated as unix:)\n"
      "  --socket PATH     alias for --connect unix:PATH\n"
      "  --interval SECS   poll interval (default 1.0, min 0.05)\n"
      "  --once            take two samples one interval apart, print\n"
      "                    plain 'key value' lines, and exit (scripting)\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args, int* rc) {
  *rc = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    auto take = [&](const char* name, std::string* out) -> bool {
      if (arg == name) {
        const char* v = next();
        if (v == nullptr) return false;
        *out = v;
        return true;
      }
      const std::string prefix = std::string(name) + "=";
      if (arg.rfind(prefix, 0) == 0) {
        *out = arg.substr(prefix.size());
        return true;
      }
      return false;
    };
    std::string value;
    if (take("--connect", &value)) {
      if (!serve::ParseTarget(value, &args->target)) {
        std::fprintf(stderr, "bad --connect: %s\n", value.c_str());
        *rc = 2;
        return false;
      }
      continue;
    }
    if (take("--socket", &value)) {
      args->target = Target{};
      args->target.path = value;
      continue;
    }
    if (take("--interval", &value)) {
      args->interval = std::atof(value.c_str());
      continue;
    }
    if (arg == "--once") {
      args->once = true;
      continue;
    }
    std::fprintf(stderr, "%s\n",
                 Status::InvalidArgument("unknown flag '" + arg +
                                         "' (run 'retina_top' for usage)")
                     .ToString()
                     .c_str());
    *rc = 2;
    return false;
  }
  if (args->target.path.empty() && args->target.host.empty()) {
    *rc = Usage();
    return false;
  }
  if (args->interval < 0.05) args->interval = 0.05;
  return true;
}

/// One polled sample: wall time plus the daemon's registry snapshot.
struct Sample {
  std::chrono::steady_clock::time_point when;
  obs::RegistrySnapshot snap;
};

/// Everything one screen/record needs, derived from two samples.
struct Derived {
  double dt = 0.0;
  double qps = 0.0;
  double shed_per_sec = 0.0;
  uint64_t responses = 0;
  uint64_t requests = 0;
  uint64_t shed = 0;
  uint64_t errors = 0;
  uint64_t connections = 0;
  uint64_t queue_depth_peak = 0;
  uint64_t queue_capacity = 0;
  uint64_t workers = 0;
  bool draining = false;
  double coalesce_avg_batch = 0.0;
  bool has_user_cache = false;
  double user_cache_hit = 0.0;
  bool has_tweet_cache = false;
  double tweet_cache_hit = 0.0;
  bool has_windows = false;
  obs::WindowSnapshot handle;
  obs::WindowSnapshot queue_wait;
};

Derived Derive(const Sample& prev, const Sample& cur) {
  Derived d;
  d.dt = std::chrono::duration<double>(cur.when - prev.when).count();
  if (d.dt <= 0.0) d.dt = 1e-9;
  const obs::RegistrySnapshot& s = cur.snap;
  d.responses = ValueOr(s.counters, "serve.responses", 0);
  d.requests = ValueOr(s.counters, "serve.requests", 0);
  d.shed = ValueOr(s.counters, "serve.shed", 0);
  d.errors = ValueOr(s.counters, "serve.errors", 0);
  d.connections = ValueOr(s.counters, "serve.connections", 0);
  d.queue_depth_peak = ValueOr(s.gauges, "serve.queue.depth_peak", 0);
  d.queue_capacity = ValueOr(s.gauges, "serve.queue.capacity", 0);
  d.workers = ValueOr(s.gauges, "serve.workers", 0);
  d.draining = ValueOr(s.gauges, "serve.draining", 0) != 0;
  const uint64_t prev_resp = ValueOr(prev.snap.counters, "serve.responses", 0);
  const uint64_t prev_shed = ValueOr(prev.snap.counters, "serve.shed", 0);
  d.qps = d.responses >= prev_resp ? (d.responses - prev_resp) / d.dt : 0.0;
  d.shed_per_sec = d.shed >= prev_shed ? (d.shed - prev_shed) / d.dt : 0.0;
  const uint64_t batches = ValueOr(s.counters, "serve.coalesce.batches", 0);
  const uint64_t fused =
      ValueOr(s.counters, "serve.coalesce.batched_requests", 0);
  d.coalesce_avg_batch =
      batches == 0 ? 0.0 : static_cast<double>(fused) / batches;
  const uint64_t uh = ValueOr(s.counters, "serving.user_cache.hits", 0);
  const uint64_t um = ValueOr(s.counters, "serving.user_cache.misses", 0);
  if (uh + um > 0) {
    d.has_user_cache = true;
    d.user_cache_hit = static_cast<double>(uh) / (uh + um);
  }
  const uint64_t th = ValueOr(s.counters, "serving.tweet_cache.hits", 0);
  const uint64_t tm = ValueOr(s.counters, "serving.tweet_cache.misses", 0);
  if (th + tm > 0) {
    d.has_tweet_cache = true;
    d.tweet_cache_hit = static_cast<double>(th) / (th + tm);
  }
  const auto hw = s.windows.find("serve.handle_ns");
  const auto qw = s.windows.find("serve.queue_wait_ns");
  if (hw != s.windows.end() || qw != s.windows.end()) {
    d.has_windows = true;
    if (hw != s.windows.end()) d.handle = hw->second;
    if (qw != s.windows.end()) d.queue_wait = qw->second;
  }
  return d;
}

std::string FmtNs(uint64_t ns) {
  char buf[32];
  if (ns >= 1000000000ULL) {
    std::snprintf(buf, sizeof(buf), "%.2fs", ns / 1e9);
  } else if (ns >= 1000000ULL) {
    std::snprintf(buf, sizeof(buf), "%.2fms", ns / 1e6);
  } else if (ns >= 1000ULL) {
    std::snprintf(buf, sizeof(buf), "%.1fus", ns / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%lluns",
                  static_cast<unsigned long long>(ns));
  }
  return buf;
}

/// Interactive frame: home the cursor and repaint (plain ANSI; no
/// ncurses dependency, degrades to append-only output in dumb logs).
void RenderScreen(const Args& args, const Derived& d) {
  std::printf("\x1b[H\x1b[2J");
  std::printf("retina_top — %s   (poll %.2fs%s)\n\n",
              args.target.Describe().c_str(), args.interval,
              d.draining ? ", DRAINING" : "");
  std::printf("  %-14s %10.1f   %-14s %10.1f\n", "qps", d.qps, "shed/s",
              d.shed_per_sec);
  std::printf("  %-14s %10llu   %-14s %10llu\n", "responses",
              static_cast<unsigned long long>(d.responses), "requests",
              static_cast<unsigned long long>(d.requests));
  std::printf("  %-14s %10llu   %-14s %10llu\n", "shed",
              static_cast<unsigned long long>(d.shed), "errors",
              static_cast<unsigned long long>(d.errors));
  std::printf("  %-14s %10llu   %-14s %6llu/%llu\n", "connections",
              static_cast<unsigned long long>(d.connections), "queue peak",
              static_cast<unsigned long long>(d.queue_depth_peak),
              static_cast<unsigned long long>(d.queue_capacity));
  std::printf("  %-14s %10llu   %-14s %10.2f\n", "workers",
              static_cast<unsigned long long>(d.workers), "coalesce avg",
              d.coalesce_avg_batch);
  if (d.has_user_cache || d.has_tweet_cache) {
    std::printf("  %-14s %9.1f%%   %-14s %9.1f%%\n", "user cache",
                d.has_user_cache ? 100.0 * d.user_cache_hit : 0.0,
                "tweet cache",
                d.has_tweet_cache ? 100.0 * d.tweet_cache_hit : 0.0);
  } else {
    std::printf("  %-14s %10s   %-14s %10s\n", "user cache", "-",
                "tweet cache", "-");
  }
  std::printf("\n  windowed latency (last %llu ticks of the daemon's "
              "metrics cadence)\n",
              static_cast<unsigned long long>(
                  d.has_windows ? d.handle.slots : 0));
  if (d.has_windows) {
    std::printf("  %-14s p50 %8s  p95 %8s  p99 %8s  (n=%llu)\n", "handle",
                FmtNs(d.handle.window.p50).c_str(),
                FmtNs(d.handle.window.p95).c_str(),
                FmtNs(d.handle.window.p99).c_str(),
                static_cast<unsigned long long>(d.handle.window.count));
    std::printf("  %-14s p50 %8s  p95 %8s  p99 %8s  (n=%llu)\n", "queue wait",
                FmtNs(d.queue_wait.window.p50).c_str(),
                FmtNs(d.queue_wait.window.p95).c_str(),
                FmtNs(d.queue_wait.window.p99).c_str(),
                static_cast<unsigned long long>(d.queue_wait.window.count));
  } else {
    std::printf("  (not recorded — daemon built with obs disabled)\n");
  }
  std::fflush(stdout);
}

/// --once output: stable machine-readable "key value" lines. The serve
/// e2e greps the qps line; keep keys append-only.
void RenderOnce(const Derived& d) {
  std::printf("qps %.3f\n", d.qps);
  std::printf("shed_per_sec %.3f\n", d.shed_per_sec);
  std::printf("responses %llu\n", static_cast<unsigned long long>(d.responses));
  std::printf("requests %llu\n", static_cast<unsigned long long>(d.requests));
  std::printf("shed %llu\n", static_cast<unsigned long long>(d.shed));
  std::printf("errors %llu\n", static_cast<unsigned long long>(d.errors));
  std::printf("queue_depth_peak %llu\n",
              static_cast<unsigned long long>(d.queue_depth_peak));
  std::printf("coalesce_avg_batch %.3f\n", d.coalesce_avg_batch);
  std::printf("user_cache_hit_ratio %s\n",
              d.has_user_cache
                  ? std::to_string(d.user_cache_hit).c_str()
                  : "not_recorded");
  std::printf("tweet_cache_hit_ratio %s\n",
              d.has_tweet_cache
                  ? std::to_string(d.tweet_cache_hit).c_str()
                  : "not_recorded");
  if (d.has_windows) {
    std::printf("window_ticks %llu\n",
                static_cast<unsigned long long>(d.handle.ticks));
    std::printf("handle_ns_window_p50 %llu\n",
                static_cast<unsigned long long>(d.handle.window.p50));
    std::printf("handle_ns_window_p95 %llu\n",
                static_cast<unsigned long long>(d.handle.window.p95));
    std::printf("handle_ns_window_p99 %llu\n",
                static_cast<unsigned long long>(d.handle.window.p99));
    std::printf("queue_wait_ns_window_p50 %llu\n",
                static_cast<unsigned long long>(d.queue_wait.window.p50));
    std::printf("queue_wait_ns_window_p95 %llu\n",
                static_cast<unsigned long long>(d.queue_wait.window.p95));
    std::printf("queue_wait_ns_window_p99 %llu\n",
                static_cast<unsigned long long>(d.queue_wait.window.p99));
  } else {
    std::printf("window_ticks not_recorded\n");
  }
  std::fflush(stdout);
}

volatile std::sig_atomic_t g_stop = 0;
void OnSignal(int) { g_stop = 1; }

}  // namespace

int main(int argc, char** argv) {
  Args args;
  int rc = 0;
  if (!ParseArgs(argc, argv, &args, &rc)) return rc;
  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);

  uint64_t request_id = 1;
  auto poll = [&](Sample* out) -> Status {
    RETINA_RETURN_NOT_OK(
        serve::QueryMetrics(args.target, request_id++, &out->snap));
    out->when = std::chrono::steady_clock::now();
    return Status::OK();
  };

  Sample prev;
  Status st = poll(&prev);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  const auto interval = std::chrono::duration_cast<
      std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(args.interval));

  if (args.once) {
    std::this_thread::sleep_for(interval);
    Sample cur;
    st = poll(&cur);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    RenderOnce(Derive(prev, cur));
    return 0;
  }

  while (g_stop == 0) {
    std::this_thread::sleep_for(interval);
    Sample cur;
    st = poll(&cur);
    if (!st.ok()) {
      // The daemon drained (or the network blipped): say so once and
      // exit cleanly rather than spinning on a dead socket.
      std::printf("\nretina_top: %s\n", st.ToString().c_str());
      return 0;
    }
    RenderScreen(args, Derive(prev, cur));
    prev = std::move(cur);
  }
  return 0;
}
