// retina::serve daemon core: a stream-socket server (Unix-domain and/or
// TCP, same frame protocol on both) that feeds a bounded admission queue
// drained by a retina::par worker pool through a coalescing dispatcher.
//
// Thread architecture (N = handler->num_workers()):
//
//   accept thread      polls every listener (Unix socket, TCP, or both),
//                      one reader thread per connection; promotes an
//                      external SIGTERM/SIGINT into RequestShutdown().
//   reader threads     decode frames. kScoreRequest -> TryPush onto the
//                      admission queue, answering kShed immediately when
//                      it is full (shed-on-full keeps overload latency
//                      bounded); kMetricsRequest answered inline.
//   dispatcher thread  runs pool->Run(N, worker-loop) on a dedicated
//                      N-thread retina::par pool. Each worker loop pops
//                      until the queue closes. Because the loops execute
//                      inside a parallel region, the model forward's own
//                      ParallelFor runs inline — each request is scored
//                      single-threaded on its worker, deterministically,
//                      and N requests score concurrently.
//
// Same-tweet coalescing (the batching dispatcher): the paper's serving
// shape is cascade scoring — many concurrent "who retweets tweet T
// next?" requests against the same hot tweet — which is exactly what the
// engine's batched GEMM path was built for. Instead of popping one item,
// a worker pops a contiguous FIFO run of up to coalesce_max_batch items
// (BoundedQueue::PopBatch), lingers for kCoalesceLingerPolls extra
// non-blocking queue polls to let a partial batch fill (polls, not wall
// clock, so tests stay deterministic), groups the run by tweet id in
// first-appearance order, and hands each group to
// Handler::HandleScoreBatch as one fused call. Fan-out is byte-identical
// to unbatched handling — the engine's batched-forward contract makes
// entry i of a fused batch bit-equal to a lone request's score — and
// every response still goes to its own connection. Items leave the queue
// strictly FIFO; coalescing never reorders admission.
//
// TraceContext discipline (the standing invariant): the queue is a
// thread hand-off, so each WorkItem captures the enqueuing reader's
// obs::TraceContext and the worker adopts it around handling (restoring
// its own afterwards), exactly the way par::ThreadPool::Run does for its
// job submitter. A coalesced group adopts the FIRST-enqueued item's
// context — one fused handler call, one ambient trace — and a
// TraceRequestScope inside the adopted context then mints the
// per-request (per-batch) trace id.
//
// Drain state machine (SIGTERM or RequestShutdown()):
//
//   ACCEPTING --> DRAINING: stop accepting (listener closed, socket file
//              unlinked), readers finish their current frame and exit --
//              nothing new enters the queue.
//   DRAINING  --> DRAINED: queue closed; workers finish every item that
//              was admitted (BoundedQueue::Pop hands out queued items
//              after Close), write their responses, and exit.
//   Wait() then returns so the daemon can export --metrics-out /
//   --trace-out. Admitted requests are never dropped: an item either
//   gets a response or was shed at admission with an immediate reply.
//
// One record per count: every serve.* fact is an obs counter or gauge,
// recorded once through ObsHooks. Counters and gauges count in every
// build (obs.h's kill-switch contract), so the metrics reply needs no
// server-side copy to stay truthful with obs disabled or compiled out.
//
// Live telemetry (kMetrics + the metrics cadence): kMetricsRequest is
// answered inline on the reader thread with a typed obs::RegistrySnapshot;
// the handler's facts (Handler::AppendStats, e.g. the dataset shape) ride
// in its gauges section. The dispatcher drives a logical metrics clock:
// every metrics_tick_requests handled requests it rotates the windowed
// histograms (so SnapshotWindow answers "p99 over the recent past"),
// re-samples the process gauges, and — when prom_out is set — atomically
// refreshes the Prometheus exposition file. The cadence counts requests,
// never wall time, so the obs-on ≡ obs-off determinism pin is untouched.

#ifndef RETINA_SERVE_SERVER_H_
#define RETINA_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/bounded_queue.h"
#include "common/obs.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "serve/handler.h"
#include "serve/protocol.h"

namespace retina::serve {

/// Extra non-blocking queue polls a worker spends topping up a partial
/// run before dispatching it. Measured in polls, not wall time, so the
/// linger window is deterministic under test scheduling.
inline constexpr size_t kCoalesceLingerPolls = 2;

struct ServerOptions {
  /// Filesystem path of the Unix-domain listening socket (empty = no Unix
  /// listener). A leftover file at the path is connect-probed first: if a
  /// live daemon answers, Start() fails instead of stealing its socket;
  /// if nothing answers (a SIGKILL'd prior run left a stale inode), the
  /// file is unlinked and the bind proceeds. The daemon unlinks the path
  /// again on drain.
  std::string socket_path;
  /// TCP listen address as "host:port" (empty = no TCP listener). Bound
  /// with SO_REUSEADDR; port 0 asks the kernel for a free port, readable
  /// afterwards via tcp_port(). Same frame protocol, same admission/shed/
  /// drain machinery as the Unix listener. At least one of socket_path /
  /// listen_address must be set.
  std::string listen_address;
  /// Admission-queue capacity; requests beyond it are shed (kShed reply).
  size_t queue_capacity = 256;
  /// Upper bound on how many queued same-tweet score requests one worker
  /// fuses into a single Handler::HandleScoreBatch call. 1 disables
  /// coalescing (every request dispatches alone, the pre-coalescing
  /// behavior).
  size_t coalesce_max_batch = 16;
  /// Install SIGTERM/SIGINT handlers that trigger the graceful drain.
  /// The daemon main turns this on; tests drive RequestShutdown directly
  /// or raise() the signal themselves.
  bool install_signal_handler = false;
  /// Metrics cadence: every this-many handled score requests the
  /// dispatcher ticks the windowed histograms, re-samples process gauges,
  /// and refreshes prom_out. 0 disables the cadence entirely.
  size_t metrics_tick_requests = 64;
  /// Path of the Prometheus text-exposition file, refreshed atomically
  /// (write temp + rename) on the metrics cadence and once at drain.
  /// Empty disables the writer.
  std::string prom_out;
};

/// \brief One listening socket + admission queue + worker pool around a
/// Handler. Start() spawns the threads; Wait() blocks until a drain
/// completes. The handler must outlive the server.
class Server {
 public:
  Server(Handler* handler, ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the socket and starts the accept/dispatch machinery.
  Status Start();

  /// Blocks until the drain state machine has fully run (triggered by
  /// RequestShutdown or a handled signal). Returns only after every
  /// admitted request has been answered and all threads joined.
  Status Wait();

  /// Idempotent, thread-safe drain trigger — the programmatic SIGTERM.
  void RequestShutdown();

  /// True once a shutdown/drain has been requested (also published as the
  /// serve.draining gauge).
  bool draining() const { return draining_.load(std::memory_order_acquire); }

  /// Port the TCP listener actually bound (useful with listen_address
  /// ":0"); 0 when no TCP listener was configured or before Start().
  uint16_t tcp_port() const { return tcp_port_; }

 private:
  struct Conn {
    explicit Conn(int fd_in) : fd(fd_in) {}
    ~Conn();
    const int fd;
    std::mutex write_mu;  ///< serializes worker/reader frame writes
  };

  /// An admitted request: the decoded frame plus the enqueuer's trace
  /// context and the admission timestamp (for serve.queue_wait_ns).
  struct WorkItem {
    std::shared_ptr<Conn> conn;
    ScoreRequest req;
    obs::TraceContext ctx;
    uint64_t enqueue_ns = 0;
  };

  Status StartUnixListener();
  Status StartTcpListener();
  void AcceptLoop();
  void ReaderLoop(std::shared_ptr<Conn> conn);
  void DispatchLoop();
  void WorkerLoop(size_t worker);
  /// Dispatches one coalesced same-tweet group (`items[indices]`) as a
  /// single handler call and fans the responses back out.
  void DispatchGroup(size_t worker, std::vector<WorkItem>* items,
                     const std::vector<size_t>& indices);
  /// Reader-side handling of a single decoded frame; false closes the
  /// connection (protocol error or unsupported type).
  bool HandleFrame(const std::shared_ptr<Conn>& conn,
                   const std::string& payload);
  void WriteResponse(Conn* conn, const ScoreResponse& resp);
  /// Advances the logical metrics clock by `n_done` handled requests and,
  /// on a cadence boundary, ticks the window ring, re-samples process
  /// gauges, and refreshes the Prometheus file.
  void MaybeTickMetrics(size_t n_done);

  Handler* handler_;
  ServerOptions options_;
  int listen_fd_ = -1;      ///< Unix-domain listener, -1 when absent
  int tcp_listen_fd_ = -1;  ///< TCP listener, -1 when absent
  uint16_t tcp_port_ = 0;
  bool started_ = false;

  par::BoundedQueue<WorkItem> queue_;
  std::unique_ptr<par::ThreadPool> pool_;
  std::atomic<bool> draining_{false};

  std::thread accept_thread_;
  std::thread dispatch_thread_;
  std::mutex readers_mu_;  ///< guards reader_threads_ growth vs. join
  std::vector<std::thread> reader_threads_;

  /// Logical metrics clock: handled-request count feeding the cadence.
  std::atomic<uint64_t> metrics_tick_counter_{0};
  std::mutex prom_mu_;  ///< single prom writer; boundary crossers skip

  /// The server's counts, resolved once at construction. The registry is
  /// process-wide, so servers in one process share these.
  struct ObsHooks {
    static ObsHooks Resolve();
    obs::Counter* connections;
    obs::Counter* requests;   ///< admitted score requests
    obs::Counter* responses;  ///< score responses written
    obs::Counter* shed;
    obs::Counter* errors;  ///< kError responses (bad requests)
    obs::Counter* protocol_errors;
    obs::Counter* write_errors;  ///< replies lost to a vanished client
    /// Coalescing outcome: a "batch" is a fused handler call covering >= 2
    /// requests; batched_requests is the requests those calls covered.
    /// avg batch size = batched_requests / batches.
    obs::Counter* coalesce_batches;
    obs::Counter* coalesce_batched_requests;
    obs::Gauge* queue_depth_peak;  ///< since this Start (reset there)
    obs::Gauge* queue_capacity;
    obs::Gauge* workers;
    obs::Gauge* coalesce_max_batch;
    obs::Gauge* draining;  ///< 0 from Start, 1 from RequestShutdown
    // Windowed: one Record feeds both the cumulative histogram (same
    // registry name, shared storage) and the current window slot.
    obs::WindowedHistogram* queue_wait_ns;
    obs::WindowedHistogram* handle_ns;
  };
  ObsHooks hooks_;
};

}  // namespace retina::serve

#endif  // RETINA_SERVE_SERVER_H_
