#include "serve/server.h"

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "common/run_export.h"

namespace retina::serve {

namespace {

/// Poll granularity of the accept and reader loops: the latency bound on
/// noticing a drain request while idle.
constexpr int kPollMs = 50;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Signal-to-drain bridge. The handler only flips a flag; the accept loop
// promotes it into RequestShutdown(). An atomic, not a volatile
// sig_atomic_t: the handler may run on any thread, and the accept thread
// reads the flag concurrently. Lock-free atomics are async-signal-safe.
std::atomic<int> g_drain_signal{0};
static_assert(std::atomic<int>::is_always_lock_free);

void DrainSignalHandler(int /*signum*/) { g_drain_signal.store(1); }

void InstallDrainSignalHandler() {
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = DrainSignalHandler;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);
}

}  // namespace

Server::Conn::~Conn() {
  if (fd >= 0) ::close(fd);
}

Server::ObsHooks Server::ObsHooks::Resolve() {
  obs::Registry& reg = obs::Registry::Global();
  ObsHooks h;
  h.connections = reg.GetCounter("serve.connections");
  h.requests = reg.GetCounter("serve.requests");
  h.responses = reg.GetCounter("serve.responses");
  h.shed = reg.GetCounter("serve.shed");
  h.errors = reg.GetCounter("serve.errors");
  h.protocol_errors = reg.GetCounter("serve.protocol_errors");
  h.write_errors = reg.GetCounter("serve.write_errors");
  h.coalesce_batches = reg.GetCounter("serve.coalesce.batches");
  h.coalesce_batched_requests =
      reg.GetCounter("serve.coalesce.batched_requests");
  h.queue_depth_peak = reg.GetGauge("serve.queue.depth_peak");
  h.queue_capacity = reg.GetGauge("serve.queue.capacity");
  h.workers = reg.GetGauge("serve.workers");
  h.coalesce_max_batch = reg.GetGauge("serve.coalesce.max_batch");
  h.draining = reg.GetGauge("serve.draining");
  h.queue_wait_ns = reg.GetWindowedHistogram("serve.queue_wait_ns");
  h.handle_ns = reg.GetWindowedHistogram("serve.handle_ns");
  return h;
}

Server::Server(Handler* handler, ServerOptions options)
    : handler_(handler),
      options_(std::move(options)),
      queue_(options_.queue_capacity),
      hooks_(ObsHooks::Resolve()) {}

Server::~Server() {
  if (started_) {
    RequestShutdown();
    Wait();
  }
}

Status Server::StartUnixListener() {
  struct sockaddr_un addr;
  if (options_.socket_path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("socket path too long: " +
                                   options_.socket_path);
  }
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, options_.socket_path.c_str(),
              options_.socket_path.size());

  // Stale-socket recovery: a SIGKILL'd daemon never reaches the drain
  // unlink, so the path may hold a dead socket inode. Probe it with a
  // connect before touching anything — if a live daemon answers, refuse
  // to steal its socket; only a probe that nobody answers licenses the
  // unlink.
  {
    const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (probe >= 0) {
      const int rc = ::connect(
          probe, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr));
      const int probe_errno = errno;
      ::close(probe);
      if (rc == 0) {
        return Status::FailedPrecondition(
            "another server is live on " + options_.socket_path +
            " (connect probe succeeded); refusing to steal its socket");
      }
      if (probe_errno != ENOENT) {
        RETINA_LOG(Warning) << "serve: removing stale socket file "
                            << options_.socket_path << " (probe: "
                            << std::strerror(probe_errno) << ")";
        ::unlink(options_.socket_path.c_str());
      }
    }
  }

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket failed: ") +
                           std::strerror(errno));
  }
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const Status st = Status::IOError("bind " + options_.socket_path +
                                      " failed: " + std::strerror(errno));
    ::close(fd);
    return st;
  }
  if (::listen(fd, 64) < 0) {
    const Status st =
        Status::IOError(std::string("listen failed: ") + std::strerror(errno));
    ::close(fd);
    ::unlink(options_.socket_path.c_str());
    return st;
  }
  listen_fd_ = fd;
  return Status::OK();
}

Status Server::StartTcpListener() {
  const std::string& spec = options_.listen_address;
  const size_t colon = spec.rfind(':');
  if (colon == std::string::npos) {
    return Status::InvalidArgument(
        "listen_address must be host:port, got '" + spec + "'");
  }
  std::string host = spec.substr(0, colon);
  const std::string port = spec.substr(colon + 1);
  if (host.empty()) host = "0.0.0.0";
  if (port.empty()) {
    return Status::InvalidArgument("listen_address has no port: '" + spec +
                                   "'");
  }

  struct addrinfo hints;
  std::memset(&hints, 0, sizeof(hints));
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_PASSIVE;
  struct addrinfo* res = nullptr;
  const int gai = ::getaddrinfo(host.c_str(), port.c_str(), &hints, &res);
  if (gai != 0) {
    return Status::InvalidArgument("cannot resolve listen address '" + spec +
                                   "': " + ::gai_strerror(gai));
  }
  Status st = Status::IOError("no usable address for '" + spec + "'");
  for (struct addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    const int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    // SO_REUSEADDR: a drained daemon's TIME_WAIT sockets must not block
    // the next run from binding the same port.
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, ai->ai_addr, ai->ai_addrlen) < 0 || ::listen(fd, 64) < 0) {
      st = Status::IOError("bind/listen " + spec +
                           " failed: " + std::strerror(errno));
      ::close(fd);
      continue;
    }
    // Recover the actual port (listen_address may have asked for :0).
    struct sockaddr_storage bound;
    socklen_t bound_len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&bound),
                      &bound_len) == 0) {
      if (bound.ss_family == AF_INET) {
        tcp_port_ = ntohs(
            reinterpret_cast<struct sockaddr_in*>(&bound)->sin_port);
      } else if (bound.ss_family == AF_INET6) {
        tcp_port_ = ntohs(
            reinterpret_cast<struct sockaddr_in6*>(&bound)->sin6_port);
      }
    }
    tcp_listen_fd_ = fd;
    st = Status::OK();
    break;
  }
  ::freeaddrinfo(res);
  return st;
}

Status Server::Start() {
  if (started_) return Status::FailedPrecondition("server already started");
  if (options_.socket_path.empty() && options_.listen_address.empty()) {
    return Status::InvalidArgument(
        "ServerOptions needs a socket_path and/or a listen_address");
  }
  if (!options_.socket_path.empty()) {
    RETINA_RETURN_NOT_OK(StartUnixListener());
  }
  if (!options_.listen_address.empty()) {
    const Status st = StartTcpListener();
    if (!st.ok()) {
      if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
        ::unlink(options_.socket_path.c_str());
      }
      return st;
    }
  }

  if (options_.install_signal_handler) {
    g_drain_signal.store(0);
    InstallDrainSignalHandler();
  }
  hooks_.queue_capacity->Set(static_cast<int64_t>(queue_.capacity()));
  hooks_.workers->Set(static_cast<int64_t>(handler_->num_workers()));
  hooks_.coalesce_max_batch->Set(
      static_cast<int64_t>(std::max<size_t>(1, options_.coalesce_max_batch)));
  hooks_.queue_depth_peak->Set(0);
  hooks_.draining->Set(0);

  pool_ = std::make_unique<par::ThreadPool>(
      handler_->num_workers() == 0 ? 1 : handler_->num_workers());
  started_ = true;
  accept_thread_ = std::thread(&Server::AcceptLoop, this);
  dispatch_thread_ = std::thread(&Server::DispatchLoop, this);
  std::string where;
  if (listen_fd_ >= 0) where += options_.socket_path;
  if (tcp_listen_fd_ >= 0) {
    if (!where.empty()) where += " + ";
    where += "tcp port " + std::to_string(tcp_port_);
  }
  RETINA_LOG(Info) << "serve: listening on " << where << " ("
                   << handler_->num_workers() << " workers, queue capacity "
                   << queue_.capacity() << ", coalesce max batch "
                   << std::max<size_t>(1, options_.coalesce_max_batch) << ")";
  return Status::OK();
}

void Server::RequestShutdown() {
  draining_.store(true, std::memory_order_release);
  hooks_.draining->Set(1);
}

Status Server::Wait() {
  if (!started_) return Status::FailedPrecondition("server not started");
  accept_thread_.join();
  // The accept thread only exits once draining_ is set, and it joins no
  // new readers after that; reader threads exit on the same flag.
  for (std::thread& t : reader_threads_) t.join();
  // Nothing can enqueue anymore: close the queue so workers drain the
  // admitted backlog and exit.
  queue_.Close();
  dispatch_thread_.join();
  started_ = false;
  if (!options_.prom_out.empty()) {
    // Final refresh so the published exposition covers the whole run even
    // when the last requests never crossed a cadence boundary.
    if (obs::Enabled()) obs::Registry::Global().SampleProcessGauges();
    const Status st = obs::ExportPrometheus(options_.prom_out);
    if (!st.ok()) {
      RETINA_LOG(Warning) << "serve: prometheus export failed: "
                          << st.ToString();
    }
  }
  RETINA_LOG(Info) << "serve: drained (" << hooks_.responses->Get()
                   << " responses, " << hooks_.shed->Get() << " shed)";
  return Status::OK();
}

void Server::AcceptLoop() {
  while (true) {
    // The signal flag is only authoritative for the server that installed
    // the handler — embedded servers (tests) drain via RequestShutdown.
    if (options_.install_signal_handler && g_drain_signal.load() != 0) {
      RequestShutdown();
    }
    if (draining()) break;
    struct pollfd pfds[2];
    nfds_t nfds = 0;
    if (listen_fd_ >= 0) {
      pfds[nfds].fd = listen_fd_;
      pfds[nfds].events = POLLIN;
      pfds[nfds].revents = 0;
      ++nfds;
    }
    if (tcp_listen_fd_ >= 0) {
      pfds[nfds].fd = tcp_listen_fd_;
      pfds[nfds].events = POLLIN;
      pfds[nfds].revents = 0;
      ++nfds;
    }
    const int pr = ::poll(pfds, nfds, kPollMs);
    if (pr <= 0) continue;  // timeout, EINTR: re-check the drain flags
    for (nfds_t i = 0; i < nfds; ++i) {
      if ((pfds[i].revents & POLLIN) == 0) continue;
      const int cfd = ::accept(pfds[i].fd, nullptr, nullptr);
      if (cfd < 0) continue;
      if (pfds[i].fd == tcp_listen_fd_) {
        // Request/response over loopback is exactly the pattern Nagle +
        // delayed-ACK penalizes; the frames are already full messages.
        const int one = 1;
        ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      }
      hooks_.connections->Add();
      auto conn = std::make_shared<Conn>(cfd);
      std::lock_guard<std::mutex> lock(readers_mu_);
      reader_threads_.emplace_back(&Server::ReaderLoop, this, std::move(conn));
    }
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(options_.socket_path.c_str());
  }
  if (tcp_listen_fd_ >= 0) {
    ::close(tcp_listen_fd_);
    tcp_listen_fd_ = -1;
  }
}

void Server::ReaderLoop(std::shared_ptr<Conn> conn) {
  std::string payload;
  while (!draining()) {
    struct pollfd pfd;
    pfd.fd = conn->fd;
    pfd.events = POLLIN;
    pfd.revents = 0;
    const int pr = ::poll(&pfd, 1, kPollMs);
    if (pr <= 0) continue;
    bool eof = false;
    const Status st = ReadFrame(conn->fd, &payload, &eof);
    if (!st.ok()) {
      // The byte stream is out of sync; nothing after this point can be
      // framed reliably, so the only safe move is to drop the connection.
      hooks_.protocol_errors->Add();
      RETINA_LOG(Warning) << "serve: " << st.ToString();
      break;
    }
    if (eof) break;
    if (!HandleFrame(conn, payload)) break;
  }
  ::shutdown(conn->fd, SHUT_RD);
  // The Conn (and its fd) stays alive until the last queued WorkItem's
  // response has been written; the shared_ptr does the bookkeeping.
}

bool Server::HandleFrame(const std::shared_ptr<Conn>& conn,
                         const std::string& payload) {
  const Result<MessageType> type = PeekMessageType(payload);
  if (!type.ok()) {
    hooks_.protocol_errors->Add();
    RETINA_LOG(Warning) << "serve: " << type.status().ToString();
    return false;
  }
  switch (type.ValueOrDie()) {
    case MessageType::kScoreRequest: {
      ScoreRequest req;
      const Status st = DecodeScoreRequest(payload, &req);
      if (!st.ok()) {
        hooks_.protocol_errors->Add();
        RETINA_LOG(Warning) << "serve: " << st.ToString();
        return false;
      }
      const uint64_t request_id = req.request_id;
      WorkItem item;
      item.conn = conn;
      item.req = std::move(req);
      // Thread hand-off: capture the enqueuer's ambient trace context for
      // the worker to adopt — the ThreadPool::Run invariant, applied to
      // the admission queue. A client that sent its own trace context
      // takes precedence: the daemon's handle span then parents under the
      // client's send span, stitching one cross-process trace.
      if (item.req.trace_id != 0) {
        item.ctx.trace_id = item.req.trace_id;
        item.ctx.span_id = item.req.span_id;
      } else {
        item.ctx = obs::CurrentTraceContext();
      }
      item.enqueue_ns = NowNs();
      if (!queue_.TryPush(std::move(item))) {
        hooks_.shed->Add();
        ScoreResponse resp;
        resp.request_id = request_id;
        resp.code = ResponseCode::kShed;
        resp.message = "admission queue full";
        WriteResponse(conn.get(), resp);
        return true;
      }
      hooks_.requests->Add();
      hooks_.queue_depth_peak->UpdateMax(static_cast<int64_t>(queue_.size()));
      return true;
    }
    case MessageType::kMetricsRequest: {
      MetricsRequest req;
      const Status st = DecodeMetricsRequest(payload, &req);
      if (!st.ok()) {
        hooks_.protocol_errors->Add();
        return false;
      }
      MetricsResponse resp;
      resp.request_id = req.request_id;
      resp.snapshot = obs::Registry::Global().TakeSnapshot();
      // The handler's facts (dataset shape, ...) ride in the gauges.
      std::map<std::string, uint64_t> facts;
      handler_->AppendStats(&facts);
      for (const auto& [key, value] : facts) {
        resp.snapshot.gauges[key] = static_cast<int64_t>(value);
      }
      const std::string encoded = EncodeMetricsResponse(resp);
      std::lock_guard<std::mutex> lock(conn->write_mu);
      if (!WriteFrame(conn->fd, encoded).ok()) hooks_.write_errors->Add();
      return true;
    }
    default:
      // A client pushing response-typed frames at the server is as
      // out-of-contract as garbage bytes.
      hooks_.protocol_errors->Add();
      return false;
  }
}

void Server::DispatchLoop() {
  const size_t n = pool_->num_threads();
  pool_->Run(n, [this](size_t w) { WorkerLoop(w); });
}

void Server::WorkerLoop(size_t worker) {
  const size_t max_batch = std::max<size_t>(1, options_.coalesce_max_batch);
  std::vector<WorkItem> run;
  std::vector<size_t> group;
  run.reserve(max_batch);
  while (true) {
    run.clear();
    if (!queue_.PopBatch(&run, max_batch)) break;
    // Linger: a bounded number of extra non-blocking polls gives closely
    // spaced arrivals a chance to join this run. Counted in polls rather
    // than wall time so the window is deterministic under test scheduling
    // and costs nothing when the queue is already keeping workers busy.
    for (size_t poll = 0;
         max_batch > 1 && poll < kCoalesceLingerPolls &&
         run.size() < max_batch;
         ++poll) {
      if (queue_.TryPopBatch(&run, max_batch - run.size()) == 0) {
        std::this_thread::yield();
      }
    }
    // Group the FIFO run by tweet id in first-appearance order. Dispatch
    // order across groups follows each group's first item, and items
    // within a group keep their relative order, so coalescing never
    // reorders what a single connection observes.
    size_t grouped = 0;
    while (grouped < run.size()) {
      group.clear();
      const uint64_t tweet = run[grouped].req.tweet_id;
      for (size_t i = grouped; i < run.size(); ++i) {
        if (run[i].conn != nullptr && run[i].req.tweet_id == tweet) {
          group.push_back(i);
        }
      }
      DispatchGroup(worker, &run, group);
      while (grouped < run.size() && run[grouped].conn == nullptr) ++grouped;
    }
  }
}

void Server::DispatchGroup(size_t worker, std::vector<WorkItem>* items,
                           const std::vector<size_t>& indices) {
  const uint64_t start_ns = NowNs();
  for (size_t idx : indices) {
    const WorkItem& item = (*items)[idx];
    if (start_ns > item.enqueue_ns) {
      hooks_.queue_wait_ns->Record(start_ns - item.enqueue_ns);
    }
  }
  std::vector<const ScoreRequest*> reqs;
  reqs.reserve(indices.size());
  for (size_t idx : indices) reqs.push_back(&(*items)[idx].req);
  // Adopt the FIRST-enqueued item's trace context for the fused call (and
  // restore our own after): one handler call, one ambient trace — the
  // cross-thread hand-off invariant, extended to coalesced groups.
  const obs::TraceContext saved = obs::CurrentTraceContext();
  obs::SetCurrentTraceContext((*items)[indices.front()].ctx);
  std::vector<ScoreResponse> resps;
  {
    obs::TraceRequestScope request_scope;
    RETINA_OBS_SPAN("serve.handle");
    handler_->HandleScoreBatch(worker, reqs, &resps);
  }
  obs::SetCurrentTraceContext(saved);
  for (size_t i = 0; i < indices.size(); ++i) {
    ScoreResponse& resp = resps[i];
    if (resp.code == ResponseCode::kError) hooks_.errors->Add();
    WorkItem& item = (*items)[indices[i]];
    WriteResponse(item.conn.get(), resp);
    hooks_.responses->Add();
    item = WorkItem();  // release the Conn reference; marks the slot done
  }
  hooks_.handle_ns->Record(NowNs() - start_ns);
  if (indices.size() >= 2) {
    hooks_.coalesce_batches->Add();
    hooks_.coalesce_batched_requests->Add(indices.size());
  }
  MaybeTickMetrics(indices.size());
}

void Server::MaybeTickMetrics(size_t n_done) {
  const size_t every = options_.metrics_tick_requests;
  if (every == 0 || n_done == 0) return;
  // fetch_add hands each boundary to exactly one worker, so a cadence
  // tick never runs twice for the same crossing.
  const uint64_t after =
      metrics_tick_counter_.fetch_add(n_done, std::memory_order_relaxed) +
      n_done;
  if (after / every == (after - n_done) / every) return;
  if (obs::Enabled()) {
    obs::Registry& reg = obs::Registry::Global();
    reg.TickWindows();
    reg.SampleProcessGauges();  // live peak RSS for kMetrics / retina_top
  }
  if (!options_.prom_out.empty()) {
    // Single writer: a worker that finds the lock held skips this refresh
    // rather than queueing file writes behind the scoring path.
    if (prom_mu_.try_lock()) {
      const Status st = obs::ExportPrometheus(options_.prom_out);
      prom_mu_.unlock();
      if (!st.ok()) {
        RETINA_LOG(Warning) << "serve: prometheus export failed: "
                            << st.ToString();
      }
    }
  }
}

void Server::WriteResponse(Conn* conn, const ScoreResponse& resp) {
  const std::string encoded = EncodeScoreResponse(resp);
  std::lock_guard<std::mutex> lock(conn->write_mu);
  const Status st = WriteFrame(conn->fd, encoded);
  if (!st.ok()) {
    // The client went away before its answer; all we owe the rest of the
    // system is the count.
    hooks_.write_errors->Add();
  }
}

}  // namespace retina::serve
