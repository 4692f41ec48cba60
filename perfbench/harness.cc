// perfbench_harness — drives retina from outside for perfbench/run.py.
//
//   perfbench_harness session --work DIR --serve-bin PATH [stream flags]
//   perfbench_harness schedule --seed N --qps Q --seconds S [stream flags]
//
// stream flags: --hot-tweets K --skew S --user-pool P --users-per-request U
//               --connections C
//
// `session` reads one command per line on stdin and answers each with one
// JSON line on stdout. run.py owns the phase plan, the quantiles and the
// pass/fail rules; this binary does the timed work and writes raw
// per-request data to DIR/*.f64. Every timing is std::chrono::steady_clock,
// and every open-loop latency runs from the request's *due* time.
//
// Commands:
//   prepare EXPORT TRAIN    the fixed world as `retina generate` makes it,
//                           then features and task; with TRAIN, RETINA-S as
//                           `retina train-retweet` trains it and its MAP@20;
//                           with EXPORT, the world CSV and the bundle on
//                           disk under DIR for the daemon
//   load-bundle             RequestHandler::Open's pieces, timed one by
//                           one, and the eval pass on the loaded bundle
//   train-epochs N T        N epochs of a fresh RETINA-S at T threads
//   start-daemon            exec retina_serve; time exec -> first OK
//   start-inproc TIMED      in-process serve::Server around TimingHandler
//   verify N                N seeded requests: server bytes == in-process
//                           RequestHandler::HandleScore bytes
//   phase NAME QPS SECS SEED  one open-loop phase
//   replay                  the test split through the server, closed loop
//   metrics                 serve.* counters over kMetricsRequest
//   stop-server             drain the server; its peak RSS
//   stage-replay QPS SECS SEED MAX   a phase's request stream through the
//                           engine's stages one by one
//   stage-replay-groups MAX the same over the test split's tweet groups
//   train-replay SEED TRACE store build, attach and cold test-split replays
//   quit

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/arena.h"
#include "common/logging.h"
#include "common/lru_cache.h"
#include "common/obs.h"
#include "common/rng.h"
#include "common/simd.h"
#include "common/sparse_vec.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/feature_extractor.h"
#include "core/model_store.h"
#include "core/retina.h"
#include "core/retweet_task.h"
#include "core/scoring_engine.h"
#include "datagen/serialize.h"
#include "datagen/world.h"
#include "io/checkpoint.h"
#include "ml/metrics.h"
#include "serve/handler.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "store/feature_store.h"

namespace {

using namespace retina;
using datagen::NodeId;
namespace fs = std::filesystem;

// ---- fixed world (the benchmark's, not the run's) ------------------------

constexpr double kWorldScale = 0.1;
constexpr size_t kWorldUsers = 8000;
constexpr uint64_t kWorldSeed = 43;
/// `retina train-retweet` default seed: features, task split and model.
constexpr uint64_t kTrainSeed = 7;
constexpr int kTrainEpochs = 4;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double SecondsSince(uint64_t t0) { return (NowNs() - t0) * 1e-9; }

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench_harness: %s\n", what.c_str());
  std::exit(1);
}

void CheckOk(const Status& st, const std::string& what) {
  if (!st.ok()) Die(what + ": " + st.ToString());
}

// ---- tiny JSON writer ----------------------------------------------------

class Json {
 public:
  Json& Num(const std::string& key, double v) {
    char buf[64];
    if (std::isfinite(v)) {
      std::snprintf(buf, sizeof(buf), "%.17g", v);
    } else {
      std::snprintf(buf, sizeof(buf), "null");
    }
    return Raw(key, buf);
  }
  Json& Int(const std::string& key, uint64_t v) {
    return Raw(key, std::to_string(v));
  }
  Json& Str(const std::string& key, const std::string& v) {
    std::string q = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') q += '\\';
      if (c == '\n') {
        q += "\\n";
        continue;
      }
      q += c;
    }
    return Raw(key, q + "\"");
  }
  Json& Bool(const std::string& key, bool v) {
    return Raw(key, v ? "true" : "false");
  }
  Json& Nums(const std::string& key, const std::vector<double>& vs) {
    std::string s = "[";
    for (size_t i = 0; i < vs.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", vs[i]);
      if (i > 0) s += ',';
      s += buf;
    }
    s += ']';
    return Raw(key, s);
  }
  Json& Raw(const std::string& key, const std::string& v) {
    if (!body_.empty()) body_ += ',';
    body_.append(1, '"').append(key).append("\":").append(v);
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

void Reply(const Json& j) {
  std::fprintf(stdout, "%s\n", j.str().c_str());
  std::fflush(stdout);
}

void WriteF64(const std::string& path, const std::vector<double>& v) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(v.data()),
            static_cast<std::streamsize>(v.size() * sizeof(double)));
  if (!out) Die("cannot write " + path);
}

double VmHwmMb(const std::string& status_path) {
  std::ifstream in(status_path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

// ---- request streams ------------------------------------------------------

struct StreamSpec {
  size_t hot_tweets = 0;  ///< 0 = uniform over every tweet
  double skew = 1.2;      ///< Zipf exponent over the hot tweets
  size_t user_pool = 0;   ///< 0 = uniform over every user
  size_t users_per_request = 4;
  size_t connections = 4;
};

/// Deterministic request content: tweet ids Zipf(skew) over `hot_tweets`
/// tweets spread across the id space (or uniform), users uniform over a
/// pool of `user_pool` ids spread across the id space (or over all).
class RequestSource {
 public:
  RequestSource(const StreamSpec& spec, uint64_t num_tweets,
                uint64_t num_users)
      : spec_(spec), num_tweets_(num_tweets), num_users_(num_users) {
    const size_t k = std::min<size_t>(spec.hot_tweets, num_tweets);
    double total = 0.0;
    for (size_t r = 0; r < k; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), spec.skew);
      cdf_.push_back(total);
      hot_ids_.push_back(r * num_tweets / k);
    }
    for (double& v : cdf_) v /= total;
  }

  serve::ScoreRequest Make(Rng* rng, uint64_t request_id) const {
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
    const uint64_t pool = spec_.user_pool == 0
                              ? num_users_
                              : std::min<uint64_t>(spec_.user_pool, num_users_);
    for (size_t k = 0; k < spec_.users_per_request; ++k) {
      const uint64_t r = rng->UniformInt(pool);
      req.users.push_back(static_cast<uint32_t>(r * num_users_ / pool));
    }
    return req;
  }

 private:
  StreamSpec spec_;
  uint64_t num_tweets_;
  uint64_t num_users_;
  std::vector<double> cdf_;
  std::vector<uint64_t> hot_ids_;
};

struct Scheduled {
  uint64_t due_ns = 0;  ///< offset from the phase start
  serve::ScoreRequest req;
};

/// One exponential arrival stream per connection, Rng::Stream(seed, conn):
/// a pure function of (seed, qps, seconds, connections, stream content).
std::vector<std::vector<Scheduled>> BuildSchedule(const RequestSource& source,
                                                  uint64_t seed, double qps,
                                                  double seconds,
                                                  size_t conns) {
  std::vector<std::vector<Scheduled>> out(conns);
  const double per_conn = qps / static_cast<double>(conns);
  for (size_t c = 0; c < conns; ++c) {
    Rng rng = Rng::Stream(seed, c);
    double t = 0.0;
    for (uint64_t i = 0;; ++i) {
      t += rng.Exponential(per_conn);
      if (t >= seconds) break;
      Scheduled s;
      s.due_ns = static_cast<uint64_t>(t * 1e9);
      s.req = source.Make(&rng, (static_cast<uint64_t>(c) << 32) | i);
      out[c].push_back(std::move(s));
    }
  }
  return out;
}

// ---- sockets ---------------------------------------------------------------

/// Connects to a server's Unix socket; -1 when nobody answers.
int Connect(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) Die("socket path too long");
  std::memcpy(addr.sun_path, path.c_str(), path.size());
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// One blocking request/response round trip.
Status RoundTrip(int fd, const std::string& payload, std::string* reply) {
  RETINA_RETURN_NOT_OK(serve::WriteFrame(fd, payload));
  bool eof = false;
  RETINA_RETURN_NOT_OK(serve::ReadFrame(fd, reply, &eof));
  if (eof) return Status::IOError("server closed the connection");
  return Status::OK();
}

// ---- the timing decorator --------------------------------------------------

/// serve::Handler that times every handler call around the production
/// RequestHandler. One record per request: when its batch entered and left
/// the handler, and the batch size.
class TimingHandler : public serve::Handler {
 public:
  struct Record {
    uint64_t request_id;
    uint64_t start_ns;
    uint64_t end_ns;
    uint32_t batch;
  };

  explicit TimingHandler(std::unique_ptr<serve::RequestHandler> inner)
      : inner_(std::move(inner)), slots_(inner_->num_workers()) {}

  size_t num_workers() const override { return inner_->num_workers(); }

  void HandleScore(size_t worker, const serve::ScoreRequest& req,
                   serve::ScoreResponse* resp) override {
    const uint64_t t0 = NowNs();
    inner_->HandleScore(worker, req, resp);
    Note(worker, {&req}, t0, NowNs());
  }

  void HandleScoreBatch(size_t worker,
                        const std::vector<const serve::ScoreRequest*>& reqs,
                        std::vector<serve::ScoreResponse>* resps) override {
    const uint64_t t0 = NowNs();
    inner_->HandleScoreBatch(worker, reqs, resps);
    Note(worker, reqs, t0, NowNs());
  }

  // No `override`: the stats hook is slated for removal from serve::Handler,
  // and without the keyword this still compiles once it is gone.
  void AppendStats(std::map<std::string, uint64_t>* stats) const {
    inner_->AppendStats(stats);
  }

  void set_enabled(bool on) { enabled_.store(on); }

  /// Drains every record and the handler-call count since the last take.
  std::vector<Record> Take(uint64_t* calls) {
    std::vector<Record> all;
    *calls = 0;
    for (Slot& s : slots_) {
      std::lock_guard<std::mutex> lock(s.mu);
      all.insert(all.end(), s.records.begin(), s.records.end());
      s.records.clear();
      *calls += s.calls;
      s.calls = 0;
    }
    return all;
  }

 private:
  struct Slot {
    std::mutex mu;
    std::vector<Record> records;
    uint64_t calls = 0;
  };

  void Note(size_t worker, const std::vector<const serve::ScoreRequest*>& reqs,
            uint64_t t0, uint64_t t1) {
    if (!enabled_.load(std::memory_order_relaxed)) return;
    Slot& s = slots_[worker];
    std::lock_guard<std::mutex> lock(s.mu);
    ++s.calls;
    for (const serve::ScoreRequest* r : reqs) {
      s.records.push_back(
          {r->request_id, t0, t1, static_cast<uint32_t>(reqs.size())});
    }
  }

  std::unique_ptr<serve::RequestHandler> inner_;
  std::vector<Slot> slots_;
  std::atomic<bool> enabled_{true};
};

// ---- open-loop client -------------------------------------------------------

enum Outcome : uint8_t { kPending = 0, kOk = 1, kShed = 2, kError = 3 };

constexpr size_t kInflightSamples = 10;

struct ReqRecord {
  uint64_t due_ns = 0;  ///< absolute
  uint64_t send_ns = 0;
  uint64_t recv_ns = 0;
  uint32_t req_bytes = 0;
  uint32_t resp_bytes = 0;
  uint32_t encode_ns = 0;
  uint32_t decode_ns = 0;
  Outcome outcome = kPending;
};

struct PhaseResult {
  std::vector<std::vector<ReqRecord>> recs;  ///< per connection
  /// Requests in flight as each tenth of the schedule went out, summed
  /// over connections.
  std::vector<uint64_t> inflight = std::vector<uint64_t>(kInflightSamples, 0);
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;  ///< when the last due request was sent
  std::string transport_error;
};

/// Runs one connection of an open-loop phase on the calling thread: sends
/// each request at its due time (never waiting for answers) and reads
/// responses as they arrive, until every request is answered or `grace`
/// seconds pass after the last due time.
void RunConnection(int fd, const std::vector<Scheduled>& sched,
                   uint64_t start_ns, double grace_s,
                   std::vector<ReqRecord>* recs,
                   std::vector<uint64_t>* inflight, std::string* error) {
  const size_t n = sched.size();
  recs->assign(n, ReqRecord());
  for (size_t i = 0; i < n; ++i) (*recs)[i].due_ns = start_ns + sched[i].due_ns;
  const uint64_t last_due = n ? (*recs)[n - 1].due_ns : start_ns;
  const uint64_t deadline = last_due + static_cast<uint64_t>(grace_s * 1e9);
  size_t next = 0, done = 0;
  std::string buf;
  char chunk[65536];
  while (done < n) {
    uint64_t now = NowNs();
    if (next < n && now >= (*recs)[next].due_ns) {
      ReqRecord& r = (*recs)[next];
      const uint64_t e0 = NowNs();
      const std::string payload = serve::EncodeScoreRequest(sched[next].req);
      const uint64_t e1 = NowNs();
      r.encode_ns = static_cast<uint32_t>(e1 - e0);
      r.req_bytes = static_cast<uint32_t>(payload.size() + 4);
      r.send_ns = e1;
      const Status st = serve::WriteFrame(fd, payload);
      if (!st.ok()) {
        *error = st.ToString();
        return;
      }
      ++next;
      // Sample at each tenth of this connection's schedule.
      const size_t k = next * kInflightSamples / std::max<size_t>(1, n);
      if (k > 0 && next == (k * n + kInflightSamples - 1) / kInflightSamples) {
        (*inflight)[k - 1] = next - done;
      }
      continue;
    }
    if (now >= deadline) return;
    const uint64_t wake = next < n ? (*recs)[next].due_ns : deadline;
    const uint64_t wait_ns = wake > now ? wake - now : 0;
    timespec ts{static_cast<time_t>(wait_ns / 1000000000ull),
                static_cast<long>(wait_ns % 1000000000ull)};
    pollfd pfd{fd, POLLIN, 0};
    const int rc = ::ppoll(&pfd, 1, &ts, nullptr);
    if (rc < 0 && errno != EINTR) {
      *error = std::string("poll: ") + std::strerror(errno);
      return;
    }
    if (rc <= 0) continue;
    const ssize_t got = ::recv(fd, chunk, sizeof(chunk), MSG_DONTWAIT);
    if (got == 0) {
      *error = "server closed the connection";
      return;
    }
    if (got < 0) {
      if (errno == EAGAIN || errno == EINTR) continue;
      *error = std::string("recv: ") + std::strerror(errno);
      return;
    }
    const uint64_t recv_ns = NowNs();
    buf.append(chunk, static_cast<size_t>(got));
    size_t off = 0;
    while (buf.size() - off >= 4) {
      uint32_t len = 0;
      std::memcpy(&len, buf.data() + off, 4);  // little-endian hosts only
      if (buf.size() - off - 4 < len) break;
      const std::string_view payload(buf.data() + off + 4, len);
      const uint64_t d0 = NowNs();
      serve::ScoreResponse resp;
      const Status st = serve::DecodeScoreResponse(payload, &resp);
      const uint64_t d1 = NowNs();
      if (!st.ok()) {
        *error = st.ToString();
        return;
      }
      const size_t idx = static_cast<size_t>(resp.request_id & 0xFFFFFFFFu);
      if (idx < n && (*recs)[idx].outcome == kPending) {
        ReqRecord& r = (*recs)[idx];
        r.recv_ns = recv_ns;
        r.resp_bytes = len + 4;
        r.decode_ns = static_cast<uint32_t>(d1 - d0);
        r.outcome = resp.code == serve::ResponseCode::kOk     ? kOk
                    : resp.code == serve::ResponseCode::kShed ? kShed
                                                              : kError;
        ++done;
      }
      off += 4 + len;
    }
    buf.erase(0, off);
  }
}

PhaseResult RunPhase(const std::string& socket_path,
                     const std::vector<std::vector<Scheduled>>& sched,
                     double grace_s) {
  PhaseResult res;
  const size_t conns = sched.size();
  std::vector<int> fds(conns, -1);
  for (size_t c = 0; c < conns; ++c) {
    fds[c] = Connect(socket_path);
    if (fds[c] < 0) Die("cannot connect to the server");
  }
  res.recs.resize(conns);
  std::vector<std::vector<uint64_t>> inflight(
      conns, std::vector<uint64_t>(kInflightSamples, 0));
  std::vector<std::string> errors(conns);
  // Sending starts a little after the threads exist, so no due time is
  // already past when the first thread runs.
  res.start_ns = NowNs() + 20'000'000ull;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < conns; ++c) {
    threads.emplace_back([&, c]() {
      RunConnection(fds[c], sched[c], res.start_ns, grace_s, &res.recs[c],
                    &inflight[c], &errors[c]);
    });
  }
  for (std::thread& t : threads) t.join();
  for (size_t c = 0; c < conns; ++c) {
    ::close(fds[c]);
    for (size_t k = 0; k < kInflightSamples; ++k) {
      res.inflight[k] += inflight[c][k];
    }
    if (!errors[c].empty() && res.transport_error.empty()) {
      res.transport_error = errors[c];
    }
    for (const ReqRecord& r : res.recs[c]) {
      res.end_ns = std::max(res.end_ns, r.send_ns);
    }
  }
  return res;
}

// ---- the fixed world and bundle --------------------------------------------

struct Prepared {
  std::unique_ptr<datagen::SyntheticWorld> world;
  std::unique_ptr<core::FeatureExtractor> fx;
  std::unique_ptr<core::RetweetTask> task;
  std::unique_ptr<core::Retina> model;
  Vec test_scores;  ///< engine scores of task->test (the eval pass)
  double map_at_20 = 0.0;
};

core::RetinaOptions TrainOptions() {
  core::RetinaOptions ropts;  // RETINA-S, as `retina train-retweet`
  ropts.epochs = kTrainEpochs;
  ropts.seed = kTrainSeed;
  return ropts;
}

double MapAt20(const core::RetweetTask& task, const Vec& scores) {
  return ml::MeanAveragePrecisionAtK(
      core::MakeRankingQueries(task, task.test, scores), 20);
}

std::string LossesJson(const std::vector<double>& losses) {
  Json j;
  j.Nums("v", losses);
  const std::string s = j.str();
  return s.substr(5, s.size() - 6);
}

// ---- the session ------------------------------------------------------------

class Session {
 public:
  Session(std::string work, std::string serve_bin, StreamSpec spec)
      : work_(std::move(work)), serve_bin_(std::move(serve_bin)), spec_(spec) {}

  ~Session() { StopServer(nullptr); }

  void Prepare(bool export_world, bool train);
  void StartDaemon();
  void StartInproc(bool timed);
  void Verify(size_t n);
  void Phase(const std::string& name, double qps, double seconds,
             uint64_t seed);
  void Replay();
  void Metrics();
  void StopServerCmd();
  void LoadBundle();
  void TrainEpochs(int epochs, size_t threads);
  void StageReplay(double qps, double seconds, uint64_t seed, size_t max_req);
  void TrainReplay(uint64_t seed, bool trace);
  void StageReplayGroups(size_t max_req);

 private:
  std::vector<std::vector<Scheduled>> Schedule(double qps, double seconds,
                                               uint64_t seed) const {
    const RequestSource source(spec_, prep_.world->tweets().size(),
                               prep_.world->NumUsers());
    return BuildSchedule(source, seed, qps, seconds, spec_.connections);
  }
  void StopServer(double* peak_rss_mb);
  void RequireServer() const {
    if (!daemon_running() && server_ == nullptr) Die("no server running");
  }
  bool daemon_running() const { return daemon_pid_ > 0; }
  std::string WorldDir() const { return work_ + "/world"; }
  std::string ModelDir() const { return work_ + "/model"; }

  std::string work_;
  std::string serve_bin_;
  StreamSpec spec_;
  Prepared prep_;
  /// In-process reference handler on the trained model (byte-match checks).
  std::unique_ptr<serve::RequestHandler> reference_;

  std::string socket_path_;
  pid_t daemon_pid_ = -1;
  // In-process server (traced runs).
  std::unique_ptr<TimingHandler> timing_;
  std::unique_ptr<serve::Server> server_;
};

void Session::Prepare(bool export_world, bool train) {
  Json j;
  uint64_t t0 = NowNs();
  datagen::WorldConfig wc;
  wc.scale = kWorldScale;
  wc.num_users = kWorldUsers;
  auto generated = std::make_unique<datagen::SyntheticWorld>(
      datagen::SyntheticWorld::Generate(wc, kWorldSeed));
  j.Num("world_generate_s", SecondsSince(t0));
  if (export_world) {
    // The daemon imports the CSV, and so does `retina train-retweet`; the
    // in-process bundle is trained on the imported world like the CLI's.
    t0 = NowNs();
    fs::remove_all(WorldDir());
    CheckOk(datagen::ExportWorldCsv(*generated, WorldDir()), "export world");
    auto imported = datagen::ImportWorldCsv(WorldDir());
    CheckOk(imported.status(), "import world");
    prep_.world = std::make_unique<datagen::SyntheticWorld>(
        std::move(imported).ValueOrDie());
    generated.reset();
    j.Num("world_export_import_s", SecondsSince(t0));
  } else {
    prep_.world = std::move(generated);
    j.Num("world_export_import_s", 0.0);
  }
  const datagen::SyntheticWorld& w = *prep_.world;

  t0 = NowNs();
  core::FeatureConfig fc;  // as the CLI's BuildFeatures
  fc.history_tfidf_dim = 200;
  fc.news_tfidf_dim = 200;
  fc.tweet_tfidf_dim = 200;
  fc.news_window = 60;
  fc.seed = kTrainSeed;
  auto fx = core::FeatureExtractor::Build(w, fc);
  CheckOk(fx.status(), "features");
  prep_.fx = std::make_unique<core::FeatureExtractor>(
      std::move(fx).ValueOrDie());
  j.Num("features_build_s", SecondsSince(t0));

  t0 = NowNs();
  core::RetweetTaskOptions topts;
  topts.seed = kTrainSeed;
  auto task = core::BuildRetweetTask(*prep_.fx, topts);
  CheckOk(task.status(), "task");
  prep_.task =
      std::make_unique<core::RetweetTask>(std::move(task).ValueOrDie());
  j.Num("task_build_s", SecondsSince(t0));

  const core::RetweetTask& tk = *prep_.task;
  if (!train) {
    Reply(j);
    return;
  }
  t0 = NowNs();
  prep_.model = std::make_unique<core::Retina>(
      tk.user_dim, tk.content_dim, tk.embed_dim, tk.NumIntervals(),
      TrainOptions());
  CheckOk(prep_.model->Train(tk), "train");
  j.Num("train_s", SecondsSince(t0));
  j.Int("train_candidates", tk.train.size());
  j.Int("epochs", kTrainEpochs);
  j.Raw("epoch_losses", LossesJson(prep_.model->epoch_losses()));

  core::ScoringEngine engine(prep_.model.get(), prep_.fx.get());
  engine.ScoreCandidatesInto(tk, tk.test, &prep_.test_scores);
  prep_.map_at_20 = MapAt20(tk, prep_.test_scores);
  j.Num("map_at_20", prep_.map_at_20);
  j.Int("test_candidates", tk.test.size());

  if (export_world) {
    core::ScoringBundleMeta meta;
    meta.task_seed = kTrainSeed;
    CheckOk(core::SaveScoringBundle(ModelDir(), *prep_.model, *prep_.fx, meta),
            "save bundle");
  }
  j.Int("num_tweets", w.tweets().size());
  j.Int("num_users", w.NumUsers());
  j.Int("num_headlines", w.news().articles().size());
  j.Str("simd", simd::BackendName(simd::Active()));
  j.Bool("obs_compiled_in", obs::kCompiledIn);
  j.Bool("obs_enabled", obs::Enabled());
  j.Str("compiler", __VERSION__);
  j.Str("build_type", PERFBENCH_BUILD_TYPE);
  j.Int("hardware_concurrency", std::thread::hardware_concurrency());
  j.Int("pool_threads", par::NumThreads());
  Reply(j);
}

void Session::StartDaemon() {
  if (prep_.model == nullptr) Die("start-daemon before prepare");
  const std::string out_path = work_ + "/daemon.out";
  const std::string err_path = work_ + "/daemon.err";
  std::vector<std::string> args = {serve_bin_, "--data", WorldDir(),
                                   "--model", ModelDir(), "--workers", "2",
                                   "--queue-capacity", "128",
                                   "--log-level", "warn"};
  socket_path_ = work_ + "/serve.sock";
  args.insert(args.end(), {"--socket", socket_path_});
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  const uint64_t t0 = NowNs();
  const pid_t pid = ::fork();
  if (pid < 0) Die("fork failed");
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    const int out = ::open(out_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    const int err = ::open(err_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (out >= 0) ::dup2(out, 1);
    if (err >= 0) ::dup2(err, 2);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  daemon_pid_ = pid;

  // Ready = the "serving on" line is out and a score request comes back OK.
  const uint64_t give_up = t0 + 120'000'000'000ull;
  serve::ScoreRequest probe;
  probe.request_id = 1;
  probe.tweet_id = 0;
  probe.users = {0};
  while (true) {
    if (NowNs() > give_up) Die("daemon did not come up in 120 s");
    int status = 0;
    if (::waitpid(pid, &status, WNOHANG) == pid) {
      daemon_pid_ = -1;
      Die("daemon exited during start-up (see " + err_path + ")");
    }
    std::ifstream in(out_path);
    std::string line;
    bool serving = false;
    while (std::getline(in, line)) {
      if (line.find("serving on") != std::string::npos) serving = true;
    }
    if (serving) {
      const int fd = Connect(socket_path_);
      if (fd >= 0) {
        std::string reply;
        const Status st =
            RoundTrip(fd, serve::EncodeScoreRequest(probe), &reply);
        ::close(fd);
        serve::ScoreResponse resp;
        if (st.ok() && serve::DecodeScoreResponse(reply, &resp).ok() &&
            resp.code == serve::ResponseCode::kOk) {
          break;
        }
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  Json j;
  j.Num("setup_s", SecondsSince(t0));
  j.Int("pid", static_cast<uint64_t>(pid));
  Reply(j);
}

void Session::StopServer(double* peak_rss_mb) {
  if (daemon_pid_ > 0) {
    if (peak_rss_mb != nullptr) {
      *peak_rss_mb =
          VmHwmMb("/proc/" + std::to_string(daemon_pid_) + "/status");
    }
    ::kill(daemon_pid_, SIGTERM);
    const uint64_t give_up = NowNs() + 20'000'000'000ull;
    int status = 0;
    while (::waitpid(daemon_pid_, &status, WNOHANG) == 0) {
      if (NowNs() > give_up) {
        ::kill(daemon_pid_, SIGKILL);
        ::waitpid(daemon_pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    daemon_pid_ = -1;
  }
  if (server_ != nullptr) {
    if (peak_rss_mb != nullptr) *peak_rss_mb = VmHwmMb("/proc/self/status");
    server_->RequestShutdown();
    server_->Wait();
    server_.reset();
  }
}

void Session::StopServerCmd() {
  double rss = 0.0;
  StopServer(&rss);
  Json j;
  j.Num("peak_rss_mb", rss);
  Reply(j);
}

void Session::LoadBundle() {
  // The pieces of RequestHandler::Open, timed one by one, then the eval
  // pass `retina eval` makes on the same bundle.
  Json j;
  uint64_t t0 = NowNs();
  auto world = datagen::ImportWorldCsv(WorldDir());
  CheckOk(world.status(), "import world");
  prep_.world = std::make_unique<datagen::SyntheticWorld>(
      std::move(world).ValueOrDie());
  j.Num("import_world_s", SecondsSince(t0));
  t0 = NowNs();
  auto ckpt = io::Checkpoint::ReadFile(ModelDir() + "/" +
                                       core::kModelCheckpointFile);
  CheckOk(ckpt.status(), "read checkpoint");
  j.Num("checkpoint_read_s", SecondsSince(t0));
  t0 = NowNs();
  auto model = core::Retina::Load(ckpt.ValueOrDie(), "retina/");
  CheckOk(model.status(), "load model");
  prep_.model = std::move(model).ValueOrDie();
  j.Num("retina_load_s", SecondsSince(t0));
  t0 = NowNs();
  auto fx = core::FeatureExtractor::Restore(*prep_.world, ckpt.ValueOrDie(),
                                            "features/");
  CheckOk(fx.status(), "restore extractor");
  prep_.fx = std::make_unique<core::FeatureExtractor>(
      std::move(fx).ValueOrDie());
  j.Num("extractor_restore_s", SecondsSince(t0));

  core::RetweetTaskOptions topts;
  topts.seed = kTrainSeed;
  auto task = core::BuildRetweetTask(*prep_.fx, topts);
  CheckOk(task.status(), "task");
  prep_.task =
      std::make_unique<core::RetweetTask>(std::move(task).ValueOrDie());
  core::ScoringEngine engine(prep_.model.get(), prep_.fx.get());
  engine.ScoreCandidatesInto(*prep_.task, prep_.task->test, &prep_.test_scores);
  prep_.map_at_20 = MapAt20(*prep_.task, prep_.test_scores);
  j.Num("map_at_20", prep_.map_at_20);
  serve::RequestHandlerOptions hopts;
  hopts.num_workers = 1;
  reference_ = serve::RequestHandler::Borrow(prep_.model.get(), prep_.fx.get(),
                                             hopts);
  Reply(j);
}

void Session::TrainEpochs(int epochs, size_t threads) {
  // A fresh RETINA-S on the loaded task; its losses must repeat the
  // bundle's own training bit for bit, at any thread count.
  if (prep_.task == nullptr) Die("train-epochs before a task exists");
  const core::RetweetTask& tk = *prep_.task;
  const size_t before = par::NumThreads();
  par::SetNumThreads(threads);
  core::RetinaOptions ropts = TrainOptions();
  ropts.epochs = epochs;
  core::Retina model(tk.user_dim, tk.content_dim, tk.embed_dim,
                     tk.NumIntervals(), ropts);
  const uint64_t t0 = NowNs();
  CheckOk(model.Train(tk), "train");
  const double secs = SecondsSince(t0);
  par::SetNumThreads(before);
  Json j;
  j.Num("train_s", secs);
  j.Int("train_candidates", tk.train.size());
  j.Int("epochs", static_cast<uint64_t>(epochs));
  j.Int("threads", threads);
  j.Raw("epoch_losses", LossesJson(model.epoch_losses()));
  Reply(j);
}

void Session::StartInproc(bool timed) {
  if (prep_.model == nullptr) Die("start-inproc before load-bundle");
  // RequestHandler::Open is import + bundle load + BuildEngines; the first
  // two ran (timed) in load-pieces, Borrow is the third.
  serve::RequestHandlerOptions hopts;
  hopts.num_workers = 2;
  timing_ = std::make_unique<TimingHandler>(serve::RequestHandler::Borrow(
      prep_.model.get(), prep_.fx.get(), hopts));
  timing_->set_enabled(timed);
  serve::ServerOptions sopts;
  sopts.queue_capacity = 128;
  socket_path_ = work_ + "/inproc.sock";
  sopts.socket_path = socket_path_;
  server_ = std::make_unique<serve::Server>(timing_.get(), sopts);
  CheckOk(server_->Start(), "in-process server");
  Json j;
  j.Bool("timed", timed);
  Reply(j);
}

void Session::Verify(size_t n) {
  RequireServer();
  const RequestSource source(spec_, prep_.world->tweets().size(),
                             prep_.world->NumUsers());
  Rng rng = Rng::Stream(0x5eed5eedull, 99);
  const int fd = Connect(socket_path_);
  if (fd < 0) Die("verify: cannot connect");
  size_t scores = 0, mismatches = 0;
  for (size_t i = 0; i < n; ++i) {
    const serve::ScoreRequest req = source.Make(&rng, i);
    std::string reply;
    CheckOk(RoundTrip(fd, serve::EncodeScoreRequest(req), &reply), "verify");
    serve::ScoreResponse local;
    reference_->HandleScore(0, req, &local);
    if (reply != serve::EncodeScoreResponse(local)) ++mismatches;
    scores += local.scores.size();
  }
  ::close(fd);
  Json j;
  j.Int("requests", n);
  j.Int("scores", scores);
  j.Int("mismatches", mismatches);
  Reply(j);
}

void Session::Phase(const std::string& name, double qps, double seconds,
                    uint64_t seed) {
  RequireServer();
  const auto sched = Schedule(qps, seconds, seed);
  if (timing_ != nullptr) {
    uint64_t ignored = 0;
    timing_->Take(&ignored);
  }
  const PhaseResult res = RunPhase(socket_path_, sched, /*grace_s=*/5.0);

  std::vector<double> lat, lag;
  uint64_t sent = 0, ok = 0, shed = 0, errors = 0, unanswered = 0;
  double enc_ns = 0, dec_ns = 0, req_b = 0, resp_b = 0;
  std::map<uint64_t, const ReqRecord*> by_id;
  for (size_t c = 0; c < res.recs.size(); ++c) {
    for (size_t i = 0; i < res.recs[c].size(); ++i) {
      const ReqRecord& r = res.recs[c][i];
      if (r.send_ns == 0) {
        ++unanswered;  // never sent: a transport failure cut the phase
        lat.push_back(INFINITY);
        lag.push_back(INFINITY);
        continue;
      }
      ++sent;
      lag.push_back((r.send_ns - r.due_ns) * 1e-6);
      enc_ns += r.encode_ns;
      req_b += r.req_bytes;
      switch (r.outcome) {
        case kOk:
          ++ok;
          lat.push_back((r.recv_ns - r.due_ns) * 1e-6);
          dec_ns += r.decode_ns;
          resp_b += r.resp_bytes;
          by_id[(static_cast<uint64_t>(c) << 32) | i] = &r;
          break;
        case kShed:
          ++shed;
          lat.push_back(INFINITY);
          break;
        case kError:
          ++errors;
          lat.push_back(INFINITY);
          break;
        case kPending:
          ++unanswered;
          lat.push_back(INFINITY);
          break;
      }
    }
  }
  WriteF64(work_ + "/" + name + ".lat_ms.f64", lat);
  WriteF64(work_ + "/" + name + ".lag_ms.f64", lag);

  Json j;
  j.Str("name", name);
  j.Int("attempted", lat.size());
  j.Int("sent", sent);
  j.Int("ok", ok);
  j.Int("shed", shed);
  j.Int("errors", errors);
  j.Int("unanswered", unanswered);
  std::vector<double> inflight(res.inflight.begin(), res.inflight.end());
  j.Nums("inflight", inflight);
  j.Num("send_span_s", (res.end_ns - res.start_ns) * 1e-9);
  j.Str("transport_error", res.transport_error);
  j.Num("client_encode_us", sent ? enc_ns / sent * 1e-3 : 0.0);
  j.Num("client_decode_us", ok ? dec_ns / ok * 1e-3 : 0.0);
  j.Num("client_request_bytes", sent ? req_b / sent : 0.0);
  j.Num("client_response_bytes", ok ? resp_b / ok : 0.0);

  if (timing_ != nullptr) {
    uint64_t calls = 0;
    const std::vector<TimingHandler::Record> records = timing_->Take(&calls);
    std::vector<double> admit, handle, back;
    double busy_ns = 0.0, batch_sum = 0.0;
    std::map<std::pair<uint64_t, uint64_t>, bool> seen_calls;
    for (const TimingHandler::Record& rec : records) {
      batch_sum += 1.0;
      const auto it = by_id.find(rec.request_id);
      if (it == by_id.end()) continue;
      const ReqRecord& r = *it->second;
      admit.push_back((static_cast<double>(rec.start_ns) - r.send_ns) * 1e-6);
      handle.push_back((rec.end_ns - rec.start_ns) * 1e-6);
      back.push_back((static_cast<double>(r.recv_ns) - rec.end_ns) * 1e-6);
      if (!seen_calls[{rec.start_ns, rec.end_ns}]) {
        seen_calls[{rec.start_ns, rec.end_ns}] = true;
        busy_ns += rec.end_ns - rec.start_ns;
      }
    }
    WriteF64(work_ + "/" + name + ".admit_ms.f64", admit);
    WriteF64(work_ + "/" + name + ".handle_ms.f64", handle);
    WriteF64(work_ + "/" + name + ".back_ms.f64", back);
    j.Int("handler_calls", calls);
    j.Num("batch_size_mean", calls ? batch_sum / calls : 0.0);
    const double wall = (res.end_ns - res.start_ns) * 1e-9;
    j.Num("worker_busy_share",
          wall > 0 ? busy_ns * 1e-9 / (wall * timing_->num_workers()) : 0.0);
  }
  Reply(j);
}

void Session::Metrics() {
  RequireServer();
  const int fd = Connect(socket_path_);
  if (fd < 0) Die("metrics: cannot connect");
  serve::MetricsRequest req;
  req.request_id = 7;
  std::string reply;
  CheckOk(RoundTrip(fd, serve::EncodeMetricsRequest(req), &reply), "metrics");
  ::close(fd);
  serve::MetricsResponse resp;
  CheckOk(serve::DecodeMetricsResponse(reply, &resp), "metrics decode");
  Json j;
  for (const auto& [key, value] : resp.snapshot.counters) {
    if (key.rfind("serve.", 0) == 0) j.Int(key, value);
  }
  Reply(j);
}

void Session::Replay() {
  // The test split, one request per tweet group, through the server:
  // closed loop over the stream spec's connections.
  RequireServer();
  const core::RetweetTask& tk = *prep_.task;
  struct Group {
    size_t begin, end;
  };
  std::vector<Group> groups;
  for (size_t i = 0; i < tk.test.size();) {
    size_t k = i + 1;
    while (k < tk.test.size() && tk.test[k].tweet_pos == tk.test[i].tweet_pos) {
      ++k;
    }
    groups.push_back({i, k});
    i = k;
  }
  Vec scores(tk.test.size(), 0.0);
  std::atomic<size_t> next{0};
  std::atomic<size_t> bad{0};
  const uint64_t t0 = NowNs();
  std::vector<std::thread> threads;
  for (size_t c = 0; c < spec_.connections; ++c) {
    threads.emplace_back([&]() {
      const int fd = Connect(socket_path_);
      if (fd < 0) {
        bad.fetch_add(1);
        return;
      }
      for (size_t g = next.fetch_add(1); g < groups.size();
           g = next.fetch_add(1)) {
        serve::ScoreRequest req;
        req.request_id = g;
        req.tweet_id = tk.tweets[tk.test[groups[g].begin].tweet_pos].tweet_id;
        for (size_t i = groups[g].begin; i < groups[g].end; ++i) {
          req.users.push_back(static_cast<uint32_t>(tk.test[i].user));
        }
        std::string reply;
        serve::ScoreResponse resp;
        if (!RoundTrip(fd, serve::EncodeScoreRequest(req), &reply).ok() ||
            !serve::DecodeScoreResponse(reply, &resp).ok() ||
            resp.code != serve::ResponseCode::kOk ||
            resp.scores.size() != groups[g].end - groups[g].begin) {
          bad.fetch_add(1);
          continue;
        }
        std::copy(resp.scores.begin(), resp.scores.end(),
                  scores.begin() + static_cast<ptrdiff_t>(groups[g].begin));
      }
      ::close(fd);
    });
  }
  for (std::thread& t : threads) t.join();
  const double secs = SecondsSince(t0);
  size_t mismatches = 0;
  for (size_t i = 0; i < scores.size(); ++i) {
    if (std::memcmp(&scores[i], &prep_.test_scores[i], sizeof(double)) != 0) {
      ++mismatches;
    }
  }
  Json j;
  j.Int("requests", groups.size());
  j.Int("candidates", tk.test.size());
  j.Num("seconds", secs);
  j.Int("failed", bad.load());
  j.Int("score_mismatches", mismatches);
  j.Num("map_at_20", MapAt20(tk, scores));
  Reply(j);
}

// ---- stage replay -------------------------------------------------------------

/// What the engine caches per tweet, rebuilt stage by stage.
struct StageTweet {
  core::TweetContext ctx;
  std::vector<int> dist;
  Vec trending;
};

struct StageTotals {
  double tweet_context_ns = 0, bfs_ns = 0, history_ns = 0, assemble_ns = 0,
         forward_ns = 0, engine_ns = 0;
  uint64_t requests = 0, candidates = 0, tweet_builds = 0, history_builds = 0;
  uint64_t mismatches = 0;
  std::vector<double> engine_us;
};

/// Replays `reqs` twice: through a default-option ScoringEngine
/// (ScoreTweetInto, timed per request) and through the engine's stages
/// called one by one behind caches of the same capacities, in the engine's
/// order. Scores must be bit-identical. The two paths take turns going
/// first, so neither one always finds the other's data in the CPU caches.
/// Cache lookups and inserts count toward their stage.
StageTotals RunStageReplay(const core::Retina& model,
                           const core::FeatureExtractor& fx,
                           const std::vector<serve::ScoreRequest>& reqs) {
  const datagen::SyntheticWorld& w = fx.world();
  const core::ScoringEngineOptions eopts;
  core::ScoringEngine engine(&model, &fx, eopts);
  LruCache<size_t, StageTweet> tweets(eopts.tweet_cache_capacity);
  LruCache<NodeId, SparseVec> users(eopts.user_cache_capacity);
  StageTotals t;
  ScratchArena arena;
  const size_t dim = fx.RetweetUserDim();
  Vec engine_scores, scores;
  std::vector<NodeId> ids;
  std::vector<const double*> row_ptrs;

  auto run_engine = [&](const datagen::Tweet& tweet) {
    const uint64_t t0 = NowNs();
    engine.ScoreTweetInto(tweet, ids, &engine_scores);
    const double e_ns = NowNs() - t0;
    t.engine_ns += e_ns;
    t.engine_us.push_back(e_ns * 1e-3);
  };
  auto run_stages = [&](const datagen::Tweet& tweet) {
    uint64_t t0 = NowNs();
    StageTweet* entry = tweets.Get(tweet.id);
    if (entry == nullptr) {
      StageTweet fresh;
      fresh.ctx.tweet_id = tweet.id;
      fresh.ctx.hateful = tweet.is_hateful;
      fresh.ctx.content = fx.TweetContentFeatures(tweet);
      fresh.ctx.embedding = fx.TweetEmbedding(tweet);
      fresh.ctx.news_window = fx.NewsEmbeddingWindow(tweet.time);
      const uint64_t t1 = NowNs();
      fresh.dist = w.network().BfsDistances(tweet.author, core::kPeerPathCutoff);
      const uint64_t t2 = NowNs();
      fresh.trending =
          w.TrendingIndicator(tweet.time, fx.config().trending_dim);
      entry = tweets.Put(tweet.id, std::move(fresh));
      t.bfs_ns += t2 - t1;
      t.tweet_context_ns -= t2 - t1;
      ++t.tweet_builds;
    }
    t.tweet_context_ns += NowNs() - t0;
    arena.Reset();
    const size_t n = ids.size();
    double* rows = arena.AllocDoubles(n * dim);
    row_ptrs.resize(n);
    for (size_t i = 0; i < n; ++i) {
      t0 = NowNs();
      const SparseVec* block = users.Get(ids[i]);
      if (block == nullptr) {
        block = users.Put(
            ids[i], SparseVec::FromDense(fx.ComputeHistoryBlock(ids[i])));
        ++t.history_builds;
      }
      const uint64_t t1 = NowNs();
      fx.AssembleRetweetUserFeaturesInto(tweet, ids[i], *block, entry->trending,
                                         entry->dist[ids[i]], rows + i * dim);
      t.history_ns += t1 - t0;
      t.assemble_ns += NowNs() - t1;
      row_ptrs[i] = rows + i * dim;
    }
    scores.resize(n);
    t0 = NowNs();
    model.ScoreBatchRows(entry->ctx, row_ptrs.data(), n, scores.data(), &arena);
    t.forward_ns += NowNs() - t0;
  };

  for (const serve::ScoreRequest& req : reqs) {
    const datagen::Tweet& tweet = w.tweets()[req.tweet_id];
    ids.assign(req.users.begin(), req.users.end());
    if (t.requests % 2 == 0) {
      run_engine(tweet);
      run_stages(tweet);
    } else {
      run_stages(tweet);
      run_engine(tweet);
    }
    for (size_t i = 0; i < ids.size(); ++i) {
      if (std::memcmp(&scores[i], &engine_scores[i], sizeof(double)) != 0) {
        ++t.mismatches;
      }
    }
    ++t.requests;
    t.candidates += ids.size();
  }
  return t;
}

void ReplyStages(const StageTotals& t, uint64_t tweet_hits,
                 uint64_t tweet_lookups, uint64_t user_hits,
                 uint64_t user_lookups, Json* j) {
  const double req = std::max<uint64_t>(1, t.requests);
  const double cand = std::max<uint64_t>(1, t.candidates);
  j->Int("requests", t.requests);
  j->Int("candidates", t.candidates);
  j->Int("mismatches", t.mismatches);
  j->Num("engine_ns", t.engine_ns);
  j->Num("stage_ns", t.tweet_context_ns + t.bfs_ns + t.history_ns +
                         t.assemble_ns + t.forward_ns);
  j->Nums("engine_us", t.engine_us);
  j->Num("tweet_context_us", t.tweet_context_ns * 1e-3 / req);
  j->Num("bfs_us", t.bfs_ns * 1e-3 / req);
  j->Num("history_block_us", t.history_ns * 1e-3 / req);
  j->Num("assemble_row_us", t.assemble_ns * 1e-3 / cand);
  j->Num("forward_us_per_candidate", t.forward_ns * 1e-3 / cand);
  j->Int("tweet_builds", t.tweet_builds);
  j->Int("history_builds", t.history_builds);
  j->Num("tweet_cache_hit_ratio",
         tweet_lookups ? static_cast<double>(tweet_hits) / tweet_lookups : 0.0);
  j->Num("user_cache_hit_ratio",
         user_lookups ? static_cast<double>(user_hits) / user_lookups : 0.0);
}

uint64_t Counter(const obs::RegistrySnapshot& s, const std::string& key) {
  const auto it = s.counters.find(key);
  return it == s.counters.end() ? 0 : it->second;
}

/// Engine cache traffic from the registry's counters between two
/// snapshots: {tweet hits, tweet lookups, user hits, user lookups}.
std::vector<uint64_t> CacheDelta(const obs::RegistrySnapshot& a,
                                 const obs::RegistrySnapshot& b) {
  auto d = [&](const char* k) { return Counter(b, k) - Counter(a, k); };
  const uint64_t th = d("serving.tweet_cache.hits");
  const uint64_t tm = d("serving.tweet_cache.misses");
  const uint64_t uh = d("serving.user_cache.hits");
  const uint64_t um = d("serving.user_cache.misses");
  return {th, th + tm, uh, uh + um};
}

void Session::StageReplay(double qps, double seconds, uint64_t seed,
                          size_t max_req) {
  // The phase's own request stream, merged across connections in due order.
  const auto sched = Schedule(qps, seconds, seed);
  std::vector<const Scheduled*> all;
  for (const auto& conn : sched) {
    for (const Scheduled& s : conn) all.push_back(&s);
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const Scheduled* a, const Scheduled* b) {
                     return a->due_ns < b->due_ns;
                   });
  std::vector<serve::ScoreRequest> reqs;
  for (size_t i = 0; i < all.size() && i < max_req; ++i) {
    reqs.push_back(all[i]->req);
  }
  const obs::RegistrySnapshot before = obs::Registry::Global().TakeSnapshot();
  const StageTotals t = RunStageReplay(*prep_.model, *prep_.fx, reqs);
  const auto c = CacheDelta(before, obs::Registry::Global().TakeSnapshot());
  Json j;
  ReplyStages(t, c[0], c[1], c[2], c[3], &j);
  Reply(j);
}

// ---- train_replay ---------------------------------------------------------------

struct ReplayGroup {
  size_t begin, end;
  const datagen::Tweet* tweet;
  std::vector<NodeId> users;
};

std::vector<ReplayGroup> TestGroups(const core::RetweetTask& tk,
                                    const datagen::SyntheticWorld& w) {
  std::vector<ReplayGroup> groups;
  for (size_t i = 0; i < tk.test.size();) {
    size_t k = i + 1;
    while (k < tk.test.size() && tk.test[k].tweet_pos == tk.test[i].tweet_pos) {
      ++k;
    }
    ReplayGroup g{i, k, &w.tweets()[tk.tweets[tk.test[i].tweet_pos].tweet_id],
                  {}};
    for (size_t c = i; c < k; ++c) g.users.push_back(tk.test[c].user);
    groups.push_back(std::move(g));
    i = k;
  }
  return groups;
}

void Session::TrainReplay(uint64_t seed, bool trace) {
  // `retina eval --store-dir` on first use: build the store, attach it,
  // replay the test split (cold LRU, so user blocks come from the store).
  if (prep_.task == nullptr || prep_.model == nullptr) {
    Die("train-replay before a trained model exists");
  }
  const core::RetweetTask& tk = *prep_.task;
  const core::FeatureExtractor& fx = *prep_.fx;
  std::vector<ReplayGroup> groups = TestGroups(tk, fx.world());
  // The run seed orders the replay.
  Rng rng(seed);
  for (size_t i = groups.size(); i > 1; --i) {
    std::swap(groups[i - 1], groups[rng.UniformInt(i)]);
  }
  const std::string store_dir = work_ + "/store";
  auto count_mismatches = [&](const ReplayGroup& g, const Vec& o) {
    size_t bad = 0;
    for (size_t i = 0; i < o.size(); ++i) {
      if (std::memcmp(&o[i], &prep_.test_scores[g.begin + i],
                      sizeof(double)) != 0) {
        ++bad;
      }
    }
    return bad;
  };

  // The store build, then fifteen cold serial passes (a fresh engine with
  // the store attached). After every third pass come a round of one
  // engine per core replaying concurrently, each from its own offset, and
  // one more timed build into a spare directory: a slow spell of the
  // machine lands in a few samples of each.
  std::vector<double> build_s, pass_s, round_s, low_ms, high_ms;
  auto build_store = [&](const std::string& dir) {
    fs::remove_all(dir);
    const uint64_t t0 = NowNs();
    CheckOk(core::ScoringEngine::BuildStore(fx, dir), "build store");
    build_s.push_back(SecondsSince(t0));
  };
  build_store(store_dir);
  const size_t threads_n =
      std::max<unsigned>(1, std::thread::hardware_concurrency());
  std::atomic<size_t> bad{0}, failed{0};  // mismatched scores, requests
  Vec scores(tk.test.size(), 0.0), out;
  uint64_t warm = 0, from_store = 0, computed = 0;
  for (int pass = 0; pass < 15; ++pass) {
    const obs::RegistrySnapshot before = obs::Registry::Global().TakeSnapshot();
    uint64_t t0 = NowNs();
    core::ScoringEngine engine(prep_.model.get(), &fx);
    CheckOk(engine.AttachStore(store_dir), "attach store");
    for (const ReplayGroup& g : groups) {
      const uint64_t r0 = NowNs();
      engine.ScoreTweetInto(*g.tweet, g.users, &out);
      low_ms.push_back((NowNs() - r0) * 1e-6);
      const size_t m = count_mismatches(g, out);
      bad.fetch_add(m);
      failed.fetch_add(m > 0 ? 1 : 0);
      std::copy(out.begin(), out.end(),
                scores.begin() + static_cast<ptrdiff_t>(g.begin));
    }
    pass_s.push_back(SecondsSince(t0));
    const obs::RegistrySnapshot after = obs::Registry::Global().TakeSnapshot();
    warm += Counter(after, "serving.user_cache.hits") -
            Counter(before, "serving.user_cache.hits");
    from_store +=
        Counter(after, "store.tier.hits") - Counter(before, "store.tier.hits");
    computed += Counter(after, "store.tier.misses") -
                Counter(before, "store.tier.misses");
    if (pass % 3 != 0) continue;

    t0 = NowNs();
    std::vector<std::vector<double>> per(threads_n);
    std::vector<std::thread> threads;
    for (size_t k = 0; k < threads_n; ++k) {
      threads.emplace_back([&, k]() {
        core::ScoringEngine e(prep_.model.get(), &fx);
        if (!e.AttachStore(store_dir).ok()) {
          bad.fetch_add(1);
          failed.fetch_add(groups.size());
          return;
        }
        Vec o;
        for (size_t s = 0; s < groups.size(); ++s) {
          const ReplayGroup& g =
              groups[(s + k * groups.size() / threads_n) % groups.size()];
          const uint64_t r0 = NowNs();
          e.ScoreTweetInto(*g.tweet, g.users, &o);
          per[k].push_back((NowNs() - r0) * 1e-6);
          const size_t m = count_mismatches(g, o);
          bad.fetch_add(m);
          failed.fetch_add(m > 0 ? 1 : 0);
        }
      });
    }
    for (std::thread& t : threads) t.join();
    for (const auto& v : per) high_ms.insert(high_ms.end(), v.begin(), v.end());
    round_s.push_back(SecondsSince(t0));
    build_store(work_ + "/store_spare");
  }
  fs::remove_all(work_ + "/store_spare");
  WriteF64(work_ + "/replay_low.lat_ms.f64", low_ms);
  WriteF64(work_ + "/replay_high.lat_ms.f64", high_ms);
  Json j;
  j.Nums("store_build_s", build_s);
  j.Nums("pass_s", pass_s);
  j.Nums("high_round_s", round_s);
  j.Int("requests", groups.size());
  j.Int("candidates", tk.test.size());
  j.Num("map_at_20", MapAt20(tk, scores));
  j.Int("tier_warm", warm);
  j.Int("tier_store", from_store);
  j.Int("tier_compute", computed);
  j.Int("high_requests", high_ms.size());
  j.Int("high_threads", threads_n);
  j.Int("score_mismatches", bad.load());
  j.Int("failed_requests", failed.load());

  if (trace) {
    // Lookups straight against the store: present users, and ids past the
    // last user (absent).
    auto opened = store::FeatureStore::Open(store_dir);
    CheckOk(opened.status(), "open store");
    auto st = std::move(opened).ValueOrDie();
    std::vector<double> found_us, absent_us;
    SparseVec v;
    store::LookupOutcome outcome;
    const uint64_t users = fx.world().NumUsers();
    Rng lr(seed ^ 0x5707e);
    for (size_t i = 0; i < 4000; ++i) {
      const uint64_t u = lr.UniformInt(users);
      uint64_t l0 = NowNs();
      CheckOk(st->Lookup(u, &v, &outcome), "lookup");
      found_us.push_back((NowNs() - l0) * 1e-3);
      l0 = NowNs();
      CheckOk(st->Lookup(users + u, &v, &outcome), "lookup");
      absent_us.push_back((NowNs() - l0) * 1e-3);
    }
    WriteF64(work_ + "/store_found_us.f64", found_us);
    WriteF64(work_ + "/store_absent_us.f64", absent_us);
  }
  j.Num("peak_rss_mb", VmHwmMb("/proc/self/status"));
  Reply(j);
}

void Session::StageReplayGroups(size_t max_req) {
  // Stage replay over the test split's tweet groups, in split order.
  const std::vector<ReplayGroup> groups = TestGroups(*prep_.task, prep_.fx->world());
  std::vector<serve::ScoreRequest> reqs;
  for (size_t g = 0; g < groups.size() && g < max_req; ++g) {
    serve::ScoreRequest r;
    r.tweet_id = groups[g].tweet->id;
    r.users.assign(groups[g].users.begin(), groups[g].users.end());
    reqs.push_back(std::move(r));
  }
  const obs::RegistrySnapshot sb = obs::Registry::Global().TakeSnapshot();
  const StageTotals stages = RunStageReplay(*prep_.model, *prep_.fx, reqs);
  const auto c = CacheDelta(sb, obs::Registry::Global().TakeSnapshot());
  Json j;
  ReplyStages(stages, c[0], c[1], c[2], c[3], &j);
  Reply(j);
}

// ---- command line -------------------------------------------------------------

struct Args {
  std::string command;
  std::string work, serve_bin;
  StreamSpec spec;
  uint64_t seed = 1;
  double qps = 100, seconds = 1;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  if (argc < 2) Die("usage: perfbench_harness session|schedule ...");
  a.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) Die("flag " + k + " needs a value");
    const std::string v = argv[++i];
    if (k == "--work") a.work = v;
    else if (k == "--serve-bin") a.serve_bin = v;
    else if (k == "--hot-tweets") a.spec.hot_tweets = std::stoul(v);
    else if (k == "--skew") a.spec.skew = std::stod(v);
    else if (k == "--user-pool") a.spec.user_pool = std::stoul(v);
    else if (k == "--users-per-request") a.spec.users_per_request = std::stoul(v);
    else if (k == "--connections") a.spec.connections = std::max(1ul, std::stoul(v));
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--qps") a.qps = std::stod(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else Die("unknown flag " + k);
  }
  return a;
}

/// FNV-1a over the schedule's request bytes and due times.
int CmdSchedule(const Args& a) {
  const RequestSource source(a.spec, 3151, 8000);
  const auto sched =
      BuildSchedule(source, a.seed, a.qps, a.seconds, a.spec.connections);
  uint64_t h = 1469598103934665603ull;
  auto mix = [&](const void* p, size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) h = (h ^ b[i]) * 1099511628211ull;
  };
  size_t count = 0;
  std::vector<double> first_due;
  for (const auto& conn : sched) {
    for (const Scheduled& s : conn) {
      const std::string bytes = serve::EncodeScoreRequest(s.req);
      mix(bytes.data(), bytes.size());
      mix(&s.due_ns, sizeof(s.due_ns));
      if (first_due.size() < 4) first_due.push_back(s.due_ns * 1e-9);
      ++count;
    }
  }
  char digest[32];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(h));
  Json j;
  j.Str("digest", digest);
  j.Int("requests", count);
  j.Nums("first_due_s", first_due);
  Reply(j);
  return 0;
}

int CmdSession(const Args& a) {
  if (a.work.empty()) Die("session needs --work");
  fs::create_directories(a.work);
  Session s(a.work, a.serve_bin, a.spec);
  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string cmd;
    in >> cmd;
    if (cmd.empty()) continue;
    if (cmd == "prepare") {
      int export_world = 1, train = 1;
      in >> export_world >> train;
      s.Prepare(export_world != 0, train != 0);
    } else if (cmd == "start-daemon") {
      s.StartDaemon();
    } else if (cmd == "load-bundle") {
      s.LoadBundle();
    } else if (cmd == "train-epochs") {
      int epochs = 1;
      size_t threads = 1;
      in >> epochs >> threads;
      s.TrainEpochs(epochs, std::max<size_t>(1, threads));
    } else if (cmd == "start-inproc") {
      int timed = 1;
      in >> timed;
      s.StartInproc(timed != 0);
    } else if (cmd == "verify") {
      size_t n = 64;
      in >> n;
      s.Verify(n);
    } else if (cmd == "phase") {
      std::string name;
      double qps = 0, secs = 0;
      uint64_t seed = 0;
      in >> name >> qps >> secs >> seed;
      if (!in || qps <= 0 || secs <= 0) Die("bad phase command: " + line);
      s.Phase(name, qps, secs, seed);
    } else if (cmd == "replay") {
      s.Replay();
    } else if (cmd == "metrics") {
      s.Metrics();
    } else if (cmd == "stop-server") {
      s.StopServerCmd();
    } else if (cmd == "stage-replay") {
      double qps = 0, secs = 0;
      uint64_t seed = 0;
      size_t max_req = 0;
      in >> qps >> secs >> seed >> max_req;
      s.StageReplay(qps, secs, seed, max_req);
    } else if (cmd == "stage-replay-groups") {
      size_t max_req = 0;
      in >> max_req;
      s.StageReplayGroups(max_req);
    } else if (cmd == "train-replay") {
      uint64_t seed = 0;
      int trace = 0;
      in >> seed >> trace;
      s.TrainReplay(seed, trace != 0);
    } else if (cmd == "quit") {
      break;
    } else {
      Die("unknown command: " + cmd);
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ::signal(SIGPIPE, SIG_IGN);
  retina::SetLogLevel(retina::LogLevel::kWarning);
  const Args a = ParseArgs(argc, argv);
  if (a.command == "session") return CmdSession(a);
  if (a.command == "schedule") return CmdSchedule(a);
  Die("unknown command " + a.command);
}
