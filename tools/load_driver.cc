// load_driver — open-loop workload client for retina_serve.
//
//   load_driver --connect URI [--qps 20,40,80] [--requests N]
//               [--connections C] [--users-per-request K] [--seed S]
//               [--hot-set K] [--skew S]
//               [--out BENCH_serve.json] [--metrics-out FILE]
//               [--timeout-secs T] [--smoke]
//
// --connect takes "unix:PATH", "tcp:HOST:PORT", or a bare filesystem
// path (treated as unix:); --socket PATH survives as an alias for the
// unix form. For each target QPS the driver opens C connections; each
// connection runs a sender thread that fires score requests on a
// deterministic exponential arrival schedule (Rng::Stream(seed, conn) —
// open loop: the sender never waits for responses, so server latency
// cannot throttle offered load the way a closed-loop bench does) and a
// receiver thread that matches responses by request id and records
// client-side latency into retina::obs histograms. Request content
// replays the generated world's cascade shape: tweet ids uniform over
// the world, candidate users Zipf-flavored (80% from a hot pool of
// num_users/4, like bench_serving's request stream). --hot-set K
// concentrates tweet ids on K hot tweets drawn Zipf(--skew) — the
// paper's cascade-storm shape, and the workload the server's same-tweet
// coalescing is built for.
//
// The sweep emits BENCH_serve.json: one point per target QPS with
// achieved throughput, p50/p95/p99 latency (from the obs histogram, so
// quantiles are log2-bucket upper bounds), client-side ok/shed/error/
// dropped counts, and the server's own shed / queue-depth-peak /
// coalescing numbers. Those come from the daemon's kMetrics reply (the
// dataset shape from its handler.* gauges, per-point counter deltas from
// Registry::SnapshotDelta), over the shared client in serve/client.h.
// check_bench.py gates the shape of this curve (p99 finite, zero shed
// below capacity) and the batched-vs-unbatched hot-set throughput
// ratio, never absolute latency.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/obs.h"
#include "common/rng.h"
#include "common/run_export.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/trace.h"
#include "serve/client.h"
#include "serve/handler.h"
#include "serve/protocol.h"

namespace {

using namespace retina;
using serve::Connect;
using serve::Target;
using serve::ValueOr;

struct Args {
  Target target;
  std::string out = "BENCH_serve.json";
  std::string metrics_out;
  std::string trace_out;
  std::string verify_data;
  std::string verify_model;
  std::vector<double> qps = {20.0, 40.0, 80.0};
  size_t requests = 240;  ///< per point, across all connections
  size_t connections = 4;
  size_t users_per_request = 8;
  size_t warmup = 32;
  size_t hot_set = 0;  ///< 0 = uniform tweets; K = Zipf over K hot tweets
  double skew = 1.0;   ///< Zipf exponent for --hot-set
  uint64_t seed = 7;
  double timeout_secs = 60.0;
  bool smoke = false;
};

int Usage() {
  std::fprintf(
      stderr,
      "usage: load_driver --connect URI [options]\n"
      "  --connect URI          unix:PATH, tcp:HOST:PORT, or a bare\n"
      "                         filesystem path (treated as unix:)\n"
      "  --socket PATH          alias for --connect unix:PATH\n"
      "  --qps LIST             comma-separated target QPS sweep\n"
      "                         (default 20,40,80; >= 3 points for the\n"
      "                         throughput-vs-latency curve)\n"
      "  --requests N           requests per point across all connections\n"
      "  --connections C        concurrent client connections, 1-256\n"
      "                         (default 4)\n"
      "  --users-per-request K  candidate users per score request\n"
      "  --hot-set K            concentrate tweet ids on K hot tweets\n"
      "                         drawn Zipf(--skew) instead of uniform —\n"
      "                         the cascade-storm workload coalescing\n"
      "                         feeds on (default 0 = uniform)\n"
      "  --skew S               Zipf exponent for --hot-set (default 1.0)\n"
      "  --seed S               arrival/content seed (deterministic)\n"
      "  --out FILE             BENCH json (default BENCH_serve.json)\n"
      "  --metrics-out FILE     dump the driver's obs registry as JSON\n"
      "  --trace-out FILE       record the driver's own timeline trace;\n"
      "                         also mints a per-request trace id carried\n"
      "                         on the wire so the daemon's --trace-out\n"
      "                         spans join the driver's (tools/report.py\n"
      "                         --client-trace merges the two files)\n"
      "  --verify-data DIR      with --verify-model: load the same bundle\n"
      "  --verify-model DIR     in-process and require the daemon's scores\n"
      "                         to be byte-identical before the sweep\n"
      "  --timeout-secs T       per-point response deadline slack\n"
      "  --smoke                CI-sized sweep (fewer requests)\n");
  return 2;
}

int UnknownFlag(const std::string& arg) {
  std::fprintf(stderr, "%s\n",
               Status::InvalidArgument("unknown flag '" + arg +
                                       "' (run 'load_driver' for usage)")
                   .ToString()
                   .c_str());
  return 2;
}

/// Cap on --connections: each connection runs a sender and a receiver
/// thread.
constexpr size_t kMaxConnections = 256;

Status ParseQpsList(const std::string& list, std::vector<double>* out) {
  out->clear();
  for (const std::string& part : Split(list, ',')) {
    double v = 0.0;
    RETINA_RETURN_NOT_OK(ParseNumberFlag("--qps", part, 0.0, 1e9, &v));
    if (v == 0.0) {
      return Status::InvalidArgument("--qps wants positive rates, got '" +
                                     list + "'");
    }
    out->push_back(v);
  }
  return Status::OK();
}

/// Prints a one-line Status rejection and fails argument parsing.
bool Reject(const Status& st, int* rc) {
  std::fprintf(stderr, "%s\n", st.ToString().c_str());
  *rc = 2;
  return false;
}

bool ParseArgs(int argc, char** argv, Args* args, int* rc) {
  *rc = 0;
  std::string qps_list;
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
    if (take("--out", &args->out) ||
        take("--metrics-out", &args->metrics_out) ||
        take("--trace-out", &args->trace_out) ||
        take("--verify-data", &args->verify_data) ||
        take("--verify-model", &args->verify_model)) {
      continue;
    }
    if (take("--connect", &value) || take("--socket", &value)) {
      if (!serve::ParseTarget(value, &args->target)) {
        std::fprintf(stderr, "bad --connect target: %s\n", value.c_str());
        *rc = 2;
        return false;
      }
      continue;
    }
    if (take("--qps", &qps_list)) continue;
    // Numeric flags parse strictly, and a bad value stops the driver
    // before it connects: each connection is two threads.
    Status number;
    const auto numeric = [&](const char* name, auto lo, auto hi, auto* out) {
      if (!take(name, &value)) return false;
      number = ParseNumberFlag(name, value, lo, hi, out);
      return true;
    };
    if (numeric("--requests", size_t{1}, size_t{10000000}, &args->requests) ||
        numeric("--connections", size_t{1}, kMaxConnections,
                &args->connections) ||
        numeric("--users-per-request", size_t{1}, size_t{65536},
                &args->users_per_request) ||
        numeric("--hot-set", size_t{0}, size_t{1000000}, &args->hot_set) ||
        numeric("--skew", 0.0, 100.0, &args->skew) ||
        numeric("--seed", uint64_t{0}, UINT64_MAX, &args->seed) ||
        numeric("--timeout-secs", 0.0, 86400.0, &args->timeout_secs)) {
      if (number.ok()) continue;
      return Reject(number, rc);
    }
    if (arg == "--smoke") {
      args->smoke = true;
      continue;
    }
    *rc = UnknownFlag(arg);
    return false;
  }
  if (!qps_list.empty()) {
    const Status qps = ParseQpsList(qps_list, &args->qps);
    if (!qps.ok()) return Reject(qps, rc);
  }
  if (args->smoke) {
    args->requests = std::min<size_t>(args->requests, 48);
    args->warmup = std::min<size_t>(args->warmup, 16);
  }
  if (args->target.path.empty() && args->target.host.empty()) {
    *rc = Usage();
    return false;
  }
  return true;
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Sends one score request, stamping it with a freshly minted client trace
/// context when a trace session is active (--trace-out): the request rides
/// the wire with trace_id plus the id of the "driver.send" span emitted
/// around the write, so the daemon's serve.handle span parents under this
/// client span and report.py can pair the two files into one cross-process
/// timeline. With tracing off the trace fields stay zero — old daemons and
/// the byte-identity pin see the same scores either way.
Status SendScoreRequest(int fd, serve::ScoreRequest req) {
  if (!obs::TraceEnabled()) {
    return serve::WriteFrame(fd, serve::EncodeScoreRequest(req));
  }
  const obs::TraceContext saved = obs::CurrentTraceContext();
  obs::TraceContext minted;
  minted.trace_id = obs::MintTraceId();
  obs::SetCurrentTraceContext(minted);
  Status st;
  {
    RETINA_OBS_SPAN("driver.send");
    const obs::TraceContext inner = obs::CurrentTraceContext();
    req.trace_id = inner.trace_id;
    req.span_id = inner.span_id;  // the driver.send span itself
    st = serve::WriteFrame(fd, serve::EncodeScoreRequest(req));
  }
  obs::SetCurrentTraceContext(saved);
  return st;
}

/// Deterministic request-content sampler: tweet ids either uniform over
/// the world or Zipf-concentrated on a hot set (--hot-set/--skew), user
/// ids Zipf-flavored (80% from a hot pool of num_users/4). One Workload
/// is shared read-only by every sender thread.
class Workload {
 public:
  Workload(uint64_t num_tweets, uint64_t num_users, size_t users_per_request,
           size_t hot_set, double skew)
      : num_tweets_(num_tweets),
        num_users_(num_users),
        users_per_request_(users_per_request) {
    if (hot_set == 0) return;
    const size_t k = std::min<size_t>(hot_set, num_tweets);
    // Zipf over ranks: weight(r) = 1/(r+1)^skew, precomputed as a CDF so
    // each draw is one Uniform() + binary search. Rank r maps to tweet
    // id (r*num_tweets)/k — hot tweets spread across the id space, so a
    // hot-set workload still touches distinct tweet-side contexts.
    cdf_.reserve(k);
    double total = 0.0;
    for (size_t r = 0; r < k; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), skew);
      cdf_.push_back(total);
    }
    for (double& v : cdf_) v /= total;
    hot_ids_.reserve(k);
    for (size_t r = 0; r < k; ++r) {
      hot_ids_.push_back(r * num_tweets / k);
    }
  }

  serve::ScoreRequest MakeRequest(Rng* rng, uint64_t request_id) const {
    serve::ScoreRequest req;
    req.request_id = request_id;
    if (cdf_.empty()) {
      req.tweet_id = rng->UniformInt(num_tweets_);
    } else {
      const double u = rng->Uniform();
      const size_t rank = static_cast<size_t>(
          std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
      req.tweet_id = hot_ids_[std::min(rank, hot_ids_.size() - 1)];
    }
    const uint64_t hot_users = std::max<uint64_t>(1, num_users_ / 4);
    req.users.reserve(users_per_request_);
    for (size_t k = 0; k < users_per_request_; ++k) {
      const uint64_t limit = rng->Bernoulli(0.8) ? hot_users : num_users_;
      req.users.push_back(static_cast<uint32_t>(rng->UniformInt(limit)));
    }
    return req;
  }

 private:
  const uint64_t num_tweets_;
  const uint64_t num_users_;
  const size_t users_per_request_;
  std::vector<double> cdf_;       ///< Zipf CDF over hot ranks (may be empty)
  std::vector<uint64_t> hot_ids_; ///< rank -> tweet id
};

/// Cross-process determinism pin (--verify-data/--verify-model): replays a
/// deterministic request stream against the daemon and against the same
/// bundle loaded in-process, requiring every score's f64 bit pattern to
/// match — the serve e2e's byte-identity acceptance gate.
Status VerifyByteIdentity(const Args& args, const Workload& workload) {
  auto handler_result =
      serve::RequestHandler::Open(args.verify_data, args.verify_model, {});
  RETINA_RETURN_NOT_OK(handler_result.status());
  const auto handler = std::move(handler_result).ValueOrDie();
  auto fd_result = Connect(args.target);
  RETINA_RETURN_NOT_OK(fd_result.status());
  const int fd = fd_result.ValueOrDie();
  Rng rng = Rng::Stream(args.seed ^ 0xBEEFULL, 0);
  Status st;
  constexpr size_t kVerifyRequests = 32;
  size_t checked = 0;
  for (size_t i = 0; i < kVerifyRequests && st.ok(); ++i) {
    const serve::ScoreRequest req = workload.MakeRequest(&rng, i);
    st = SendScoreRequest(fd, req);
    if (!st.ok()) break;
    std::string payload;
    bool eof = false;
    st = serve::ReadFrame(fd, &payload, &eof);
    if (st.ok() && eof) st = Status::IOError("server closed during verify");
    if (!st.ok()) break;
    serve::ScoreResponse remote;
    st = serve::DecodeScoreResponse(payload, &remote);
    if (!st.ok()) break;
    if (remote.code != serve::ResponseCode::kOk) {
      st = Status::Internal("verify request " + std::to_string(i) +
                            " rejected: " + remote.message);
      break;
    }
    serve::ScoreResponse local;
    handler->HandleScore(0, req, &local);
    if (local.code != serve::ResponseCode::kOk ||
        local.scores.size() != remote.scores.size()) {
      st = Status::Internal("verify request " + std::to_string(i) +
                            ": local/remote response shape mismatch");
      break;
    }
    for (size_t k = 0; k < local.scores.size() && st.ok(); ++k) {
      if (std::memcmp(&local.scores[k], &remote.scores[k],
                      sizeof(double)) != 0) {
        st = Status::Internal(
            "verify request " + std::to_string(i) + " score " +
            std::to_string(k) +
            ": daemon diverged from the in-process engine");
      }
    }
    checked += local.scores.size();
  }
  ::close(fd);
  RETINA_RETURN_NOT_OK(st);
  std::printf(
      "verify: %zu requests, %zu scores byte-identical to the in-process "
      "engine\n",
      kVerifyRequests, checked);
  return Status::OK();
}

struct PointResult {
  double target_qps = 0.0;
  double achieved_qps = 0.0;
  double elapsed_s = 0.0;
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t shed = 0;
  uint64_t errors = 0;
  uint64_t dropped = 0;  ///< sent but never answered before the deadline
  double latency_mean_ns = 0.0;
  uint64_t latency_p50_ns = 0;
  uint64_t latency_p95_ns = 0;
  uint64_t latency_p99_ns = 0;
  uint64_t server_shed_delta = 0;
  uint64_t server_requests_delta = 0;
  uint64_t server_responses_delta = 0;
  uint64_t server_queue_depth_peak = 0;
  uint64_t coalesce_batches_delta = 0;
  uint64_t coalesce_batched_requests_delta = 0;
};

/// Per-connection receive-side tallies, written by the receiver thread.
struct ConnTally {
  uint64_t ok = 0;
  uint64_t shed = 0;
  uint64_t errors = 0;
  uint64_t last_response_ns = 0;
  Status error_status;  ///< first transport/protocol error, if any
};

struct DriverHooks {
  obs::Counter* sent;
  obs::Counter* ok;
  obs::Counter* shed;
  obs::Counter* errors;
  obs::Histogram* latency_ns;

  static DriverHooks Resolve() {
    obs::Registry& reg = obs::Registry::Global();
    DriverHooks h;
    h.sent = reg.GetCounter("driver.sent");
    h.ok = reg.GetCounter("driver.ok");
    h.shed = reg.GetCounter("driver.shed");
    h.errors = reg.GetCounter("driver.errors");
    h.latency_ns = reg.GetHistogram("driver.latency_ns");
    return h;
  }
};

/// Runs one open-loop point at `target_qps`. Returns an error only for
/// setup failures; per-connection transport errors surface as dropped
/// requests in the result.
Status RunPoint(const Args& args, size_t point_idx, double target_qps,
                const Workload& workload, const DriverHooks& hooks,
                PointResult* result) {
  const size_t conns = args.connections;
  result->target_qps = target_qps;

  obs::RegistrySnapshot before;
  RETINA_RETURN_NOT_OK(serve::QueryMetrics(args.target, 1, &before));

  std::vector<int> fds(conns, -1);
  for (size_t c = 0; c < conns; ++c) {
    auto fd_result = Connect(args.target);
    if (!fd_result.ok()) {
      for (int fd : fds) {
        if (fd >= 0) ::close(fd);
      }
      return fd_result.status();
    }
    fds[c] = fd_result.ValueOrDie();
  }

  // Request counts per connection (the remainder spreads over the first
  // connections) and the per-request send timestamps the receivers match
  // latencies against. Timestamp slots are atomics because sender and
  // receiver are different threads; the socket round trip orders the
  // accesses causally but the memory model still wants the handshake.
  std::vector<size_t> per_conn(conns, args.requests / conns);
  for (size_t c = 0; c < args.requests % conns; ++c) per_conn[c]++;
  std::vector<std::unique_ptr<std::atomic<uint64_t>[]>> send_ns(conns);
  for (size_t c = 0; c < conns; ++c) {
    send_ns[c] = std::make_unique<std::atomic<uint64_t>[]>(
        per_conn[c] == 0 ? 1 : per_conn[c]);
  }

  const double per_conn_qps = target_qps / static_cast<double>(conns);
  const auto point_start = std::chrono::steady_clock::now();
  const uint64_t point_start_ns = NowNs();
  const double expected_span_s =
      static_cast<double>(args.requests) / target_qps;
  const auto deadline =
      point_start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                        std::chrono::duration<double>(expected_span_s +
                                                      args.timeout_secs));

  std::vector<ConnTally> tallies(conns);
  std::vector<std::thread> senders;
  std::vector<std::thread> receivers;
  senders.reserve(conns);
  receivers.reserve(conns);

  for (size_t c = 0; c < conns; ++c) {
    // Open loop: the schedule is laid out in absolute time from the point
    // start; a slow server delays responses, never the next send.
    senders.emplace_back([&, c]() {
      Rng rng = Rng::Stream(args.seed + 7919 * point_idx, c);
      double t = 0.0;
      for (size_t i = 0; i < per_conn[c]; ++i) {
        t += rng.Exponential(per_conn_qps);
        std::this_thread::sleep_until(
            point_start + std::chrono::duration_cast<
                              std::chrono::steady_clock::duration>(
                              std::chrono::duration<double>(t)));
        const uint64_t rid = (static_cast<uint64_t>(c) << 32) | i;
        const serve::ScoreRequest req = workload.MakeRequest(&rng, rid);
        send_ns[c][i].store(NowNs(), std::memory_order_release);
        const Status st = SendScoreRequest(fds[c], req);
        if (!st.ok()) return;  // receiver sees the broken stream too
        hooks.sent->Add();
      }
    });
    receivers.emplace_back([&, c]() {
      ConnTally& tally = tallies[c];
      std::string payload;
      size_t received = 0;
      while (received < per_conn[c]) {
        if (std::chrono::steady_clock::now() >= deadline) return;
        bool eof = false;
        const Status st = serve::ReadFrame(fds[c], &payload, &eof);
        if (!st.ok() || eof) {
          if (!st.ok()) tally.error_status = st;
          return;
        }
        serve::ScoreResponse resp;
        const Status dst = serve::DecodeScoreResponse(payload, &resp);
        if (!dst.ok()) {
          tally.error_status = dst;
          return;
        }
        const uint64_t recv_ns = NowNs();
        received++;
        tally.last_response_ns = recv_ns;
        const size_t idx = static_cast<size_t>(resp.request_id & 0xFFFFFFFF);
        switch (resp.code) {
          case serve::ResponseCode::kOk: {
            tally.ok++;
            hooks.ok->Add();
            if (idx < per_conn[c]) {
              const uint64_t sent_at =
                  send_ns[c][idx].load(std::memory_order_acquire);
              if (sent_at != 0 && recv_ns > sent_at) {
                hooks.latency_ns->Record(recv_ns - sent_at);
              }
            }
            break;
          }
          case serve::ResponseCode::kShed:
            tally.shed++;
            hooks.shed->Add();
            break;
          case serve::ResponseCode::kError:
            tally.errors++;
            hooks.errors->Add();
            break;
        }
      }
    });
  }
  for (std::thread& t : senders) t.join();
  for (std::thread& t : receivers) t.join();
  uint64_t last_response_ns = point_start_ns;
  for (size_t c = 0; c < conns; ++c) {
    const ConnTally& tally = tallies[c];
    result->ok += tally.ok;
    result->shed += tally.shed;
    result->errors += tally.errors;
    last_response_ns = std::max(last_response_ns, tally.last_response_ns);
    if (!tally.error_status.ok()) {
      std::fprintf(stderr, "connection %zu: %s\n", c,
                   tally.error_status.ToString().c_str());
    }
  }
  for (int fd : fds) ::close(fd);

  result->sent = args.requests;
  const uint64_t answered = result->ok + result->shed + result->errors;
  result->dropped = result->sent > answered ? result->sent - answered : 0;
  result->elapsed_s =
      static_cast<double>(last_response_ns - point_start_ns) / 1e9;
  if (result->elapsed_s > 0.0) {
    result->achieved_qps =
        static_cast<double>(answered) / result->elapsed_s;
  }
  result->latency_mean_ns = hooks.latency_ns->Mean();
  result->latency_p50_ns = hooks.latency_ns->Quantile(0.50);
  result->latency_p95_ns = hooks.latency_ns->Quantile(0.95);
  result->latency_p99_ns = hooks.latency_ns->Quantile(0.99);

  obs::RegistrySnapshot after;
  RETINA_RETURN_NOT_OK(serve::QueryMetrics(args.target, 2, &after));
  const obs::RegistrySnapshot delta =
      obs::Registry::SnapshotDelta(before, after);
  result->server_shed_delta = ValueOr(delta.counters, "serve.shed", 0);
  result->server_requests_delta = ValueOr(delta.counters, "serve.requests", 0);
  result->server_responses_delta =
      ValueOr(delta.counters, "serve.responses", 0);
  result->server_queue_depth_peak =
      ValueOr(after.gauges, "serve.queue.depth_peak", 0);
  result->coalesce_batches_delta =
      ValueOr(delta.counters, "serve.coalesce.batches", 0);
  result->coalesce_batched_requests_delta =
      ValueOr(delta.counters, "serve.coalesce.batched_requests", 0);
  return Status::OK();
}

Status WriteBenchJson(const Args& args, const obs::RegistrySnapshot& server,
                      const std::vector<PointResult>& points) {
  FILE* f = std::fopen(args.out.c_str(), "w");
  if (f == nullptr) {
    return Status::IOError("cannot open " + args.out + " for writing");
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"serve_open_loop\",\n");
  std::fprintf(f, "  \"smoke\": %s,\n", args.smoke ? "true" : "false");
  std::fprintf(f, "  \"obs_compiled_in\": %s,\n",
               obs::kCompiledIn ? "true" : "false");
  std::fprintf(f, "  \"hardware_concurrency\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"connections\": %zu,\n", args.connections);
  std::fprintf(f, "  \"requests_per_point\": %zu,\n", args.requests);
  std::fprintf(f, "  \"users_per_request\": %zu,\n", args.users_per_request);
  std::fprintf(f, "  \"transport\": \"%s\",\n",
               args.target.tcp ? "tcp" : "unix");
  std::fprintf(f, "  \"hot_set\": %zu,\n", args.hot_set);
  std::fprintf(f, "  \"skew\": %g,\n", args.skew);
  std::fprintf(f, "  \"coalesce_max_batch\": %llu,\n",
               static_cast<unsigned long long>(
                   ValueOr(server.gauges, "serve.coalesce.max_batch", 1)));
  std::fprintf(f, "  \"seed\": %llu,\n",
               static_cast<unsigned long long>(args.seed));
  std::fprintf(f, "  \"workers\": %llu,\n",
               static_cast<unsigned long long>(
                   ValueOr(server.gauges, "serve.workers", 0)));
  std::fprintf(f, "  \"queue_capacity\": %llu,\n",
               static_cast<unsigned long long>(
                   ValueOr(server.gauges, "serve.queue.capacity", 0)));
  std::fprintf(f, "  \"points\": [\n");
  for (size_t i = 0; i < points.size(); ++i) {
    const PointResult& p = points[i];
    std::fprintf(f, "    {\n");
    std::fprintf(f, "      \"target_qps\": %g,\n", p.target_qps);
    std::fprintf(f, "      \"achieved_qps\": %g,\n", p.achieved_qps);
    std::fprintf(f, "      \"elapsed_s\": %g,\n", p.elapsed_s);
    std::fprintf(f, "      \"sent\": %llu,\n",
                 static_cast<unsigned long long>(p.sent));
    std::fprintf(f, "      \"ok\": %llu,\n",
                 static_cast<unsigned long long>(p.ok));
    std::fprintf(f, "      \"shed\": %llu,\n",
                 static_cast<unsigned long long>(p.shed));
    std::fprintf(f, "      \"errors\": %llu,\n",
                 static_cast<unsigned long long>(p.errors));
    std::fprintf(f, "      \"dropped\": %llu,\n",
                 static_cast<unsigned long long>(p.dropped));
    std::fprintf(f, "      \"latency_ns\": {\n");
    std::fprintf(f, "        \"mean\": %g,\n", p.latency_mean_ns);
    std::fprintf(f, "        \"p50\": %llu,\n",
                 static_cast<unsigned long long>(p.latency_p50_ns));
    std::fprintf(f, "        \"p95\": %llu,\n",
                 static_cast<unsigned long long>(p.latency_p95_ns));
    std::fprintf(f, "        \"p99\": %llu\n",
                 static_cast<unsigned long long>(p.latency_p99_ns));
    std::fprintf(f, "      },\n");
    std::fprintf(f, "      \"server_shed_delta\": %llu,\n",
                 static_cast<unsigned long long>(p.server_shed_delta));
    std::fprintf(f, "      \"server_requests_delta\": %llu,\n",
                 static_cast<unsigned long long>(p.server_requests_delta));
    std::fprintf(f, "      \"server_responses_delta\": %llu,\n",
                 static_cast<unsigned long long>(p.server_responses_delta));
    std::fprintf(f, "      \"server_queue_depth_peak\": %llu,\n",
                 static_cast<unsigned long long>(p.server_queue_depth_peak));
    const double avg_batch =
        p.coalesce_batches_delta > 0
            ? static_cast<double>(p.coalesce_batched_requests_delta) /
                  static_cast<double>(p.coalesce_batches_delta)
            : 0.0;
    std::fprintf(f, "      \"coalesce\": {\n");
    std::fprintf(f, "        \"batches\": %llu,\n",
                 static_cast<unsigned long long>(p.coalesce_batches_delta));
    std::fprintf(
        f, "        \"batched_requests\": %llu,\n",
        static_cast<unsigned long long>(p.coalesce_batched_requests_delta));
    std::fprintf(f, "        \"avg_batch\": %g\n", avg_batch);
    std::fprintf(f, "      }\n");
    std::fprintf(f, "    }%s\n", i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n");
  std::fprintf(f, "}\n");
  if (std::fclose(f) != 0) {
    return Status::IOError("short write to " + args.out);
  }
  return Status::OK();
}

int Fail(const Status& st) {
  std::fprintf(stderr, "%s\n", st.ToString().c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  int rc = 0;
  if (!ParseArgs(argc, argv, &args, &rc)) return rc;
  if (!args.trace_out.empty()) obs::StartTracing();

  // Learn the dataset shape from the daemon instead of loading the world:
  // the driver stays a pure protocol client.
  obs::RegistrySnapshot server;
  Status st = serve::QueryMetrics(args.target, 1, &server);
  if (!st.ok()) return Fail(st);
  const uint64_t num_tweets = ValueOr(server.gauges, "handler.num_tweets", 0);
  const uint64_t num_users = ValueOr(server.gauges, "handler.num_users", 0);
  if (num_tweets == 0 || num_users == 0) {
    return Fail(Status::FailedPrecondition(
        "server metrics did not report handler.num_tweets/num_users"));
  }
  std::printf("server at %s: %llu tweets, %llu users, %llu workers, "
              "queue capacity %llu, coalesce max batch %llu\n",
              args.target.Describe().c_str(),
              static_cast<unsigned long long>(num_tweets),
              static_cast<unsigned long long>(num_users),
              static_cast<unsigned long long>(
                  ValueOr(server.gauges, "serve.workers", 0)),
              static_cast<unsigned long long>(
                  ValueOr(server.gauges, "serve.queue.capacity", 0)),
              static_cast<unsigned long long>(
                  ValueOr(server.gauges, "serve.coalesce.max_batch", 1)));

  const Workload workload(num_tweets, num_users, args.users_per_request,
                          args.hot_set, args.skew);

  if (!args.verify_data.empty() || !args.verify_model.empty()) {
    if (args.verify_data.empty() || args.verify_model.empty()) {
      return Fail(Status::InvalidArgument(
          "--verify-data and --verify-model must be given together"));
    }
    st = VerifyByteIdentity(args, workload);
    if (!st.ok()) return Fail(st);
  }

  const DriverHooks hooks = DriverHooks::Resolve();

  // Closed-loop warmup so the first measured point does not pay the
  // engine's cold caches.
  if (args.warmup > 0) {
    auto fd_result = Connect(args.target);
    if (!fd_result.ok()) return Fail(fd_result.status());
    const int fd = fd_result.ValueOrDie();
    Rng rng = Rng::Stream(args.seed ^ 0x57A7ULL, 0);
    for (size_t i = 0; i < args.warmup; ++i) {
      const serve::ScoreRequest req = workload.MakeRequest(&rng, i);
      st = SendScoreRequest(fd, req);
      if (st.ok()) {
        std::string payload;
        bool eof = false;
        st = serve::ReadFrame(fd, &payload, &eof);
        if (st.ok() && eof) st = Status::IOError("server closed in warmup");
      }
      if (!st.ok()) {
        ::close(fd);
        return Fail(st);
      }
    }
    ::close(fd);
  }

  std::vector<PointResult> points;
  points.reserve(args.qps.size());
  for (size_t p = 0; p < args.qps.size(); ++p) {
    // Fresh instruments per point so the histogram quantiles are the
    // point's own (registered pointers survive the reset).
    obs::Registry::Global().Reset();
    PointResult result;
    st = RunPoint(args, p, args.qps[p], workload, hooks, &result);
    if (!st.ok()) return Fail(st);
    points.push_back(result);
    std::printf(
        "qps %7.1f -> achieved %7.1f  ok %llu shed %llu err %llu drop %llu  "
        "p50 %.3fms p95 %.3fms p99 %.3fms\n",
        result.target_qps, result.achieved_qps,
        static_cast<unsigned long long>(result.ok),
        static_cast<unsigned long long>(result.shed),
        static_cast<unsigned long long>(result.errors),
        static_cast<unsigned long long>(result.dropped),
        static_cast<double>(result.latency_p50_ns) / 1e6,
        static_cast<double>(result.latency_p95_ns) / 1e6,
        static_cast<double>(result.latency_p99_ns) / 1e6);
  }

  st = serve::QueryMetrics(args.target, 3, &server);
  if (!st.ok()) return Fail(st);
  st = WriteBenchJson(args, server, points);
  if (!st.ok()) return Fail(st);
  std::printf("wrote %s (%zu points)\n", args.out.c_str(), points.size());

  st = obs::ExportMetricsJson(args.metrics_out);
  if (!st.ok()) return Fail(st);
  st = obs::ExportChromeTrace(args.trace_out);
  if (!st.ok()) return Fail(st);
  return 0;
}
