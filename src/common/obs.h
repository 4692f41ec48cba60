// retina::obs — lock-cheap observability for the training and serving
// paths: counters, gauges, log2-bucketed latency histograms, append-only
// series, and RAII trace spans, all hanging off a process-wide registry
// that exports JSON and a human-readable table.
//
// Determinism contract: every primitive here is an *observer*. Nothing in
// this header may influence control flow, RNG consumption, or arithmetic
// of the code it instruments — instrumented code must produce bit-identical
// outputs with observability enabled, disabled at runtime, or compiled out
// (pinned by obs_test's on/off bit-exactness run; see DESIGN.md §9).
//
// Kill-switch contract: counters and gauges always count. They are the one
// record of every count in the process (the serving daemon's metrics reply
// reads nothing else), so `RETINA_OBS=0` and -DRETINA_OBS_DISABLED leave
// them live. The switch gates the instruments whose cost is a clock read
// or a lock: histograms, windowed histograms, series, spans, and timeline
// tracing.
//
// Cost model:
//   - counters/gauges: sharded relaxed fetch_adds (no cacheline ping-pong
//     under ParallelFor) / one relaxed store, in every build;
//   - gated instruments, disabled at runtime: one relaxed atomic load + one
//     predictable branch per site;
//   - gated instruments, compiled out: sites reduce to nothing;
//   - gated instruments, enabled: histograms one fetch_add into a log2
//     bucket, spans two steady_clock reads + three fetch_adds.
//
// Registry lookups (GetCounter etc.) take a mutex and are NOT for hot
// paths: resolve once into a static/member pointer and reuse it — the
// returned pointers are stable for the life of the process.

#ifndef RETINA_COMMON_OBS_H_
#define RETINA_COMMON_OBS_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace retina::obs {

#ifdef RETINA_OBS_DISABLED
inline constexpr bool kCompiledIn = false;
#else
inline constexpr bool kCompiledIn = true;
#endif

namespace internal {
extern std::atomic<bool> g_enabled;
/// Stable small id of the calling thread, used to pick a counter shard.
size_t ThreadShard();
}  // namespace internal

/// Runtime kill switch for the gated instruments (everything but counters
/// and gauges). Defaults to on unless the RETINA_OBS environment variable
/// is set to "0" at process start.
inline bool Enabled() {
  if constexpr (!kCompiledIn) return false;
  return internal::g_enabled.load(std::memory_order_relaxed);
}
void SetEnabled(bool enabled);

/// \brief Monotonic event counter, sharded to stay cheap when many pool
/// workers increment the same counter concurrently. Counts regardless of
/// the kill switch.
class Counter {
 public:
  static constexpr size_t kShards = 16;

  void Add(uint64_t n = 1) {
    shards_[internal::ThreadShard() % kShards].v.fetch_add(
        n, std::memory_order_relaxed);
  }

  /// Aggregated value (sum over shards). Concurrent Adds may or may not be
  /// included; reads are meant for end-of-run export.
  uint64_t Get() const {
    uint64_t total = 0;
    for (const Shard& s : shards_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }

  void Reset() {
    for (Shard& s : shards_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> v{0};
  };
  Shard shards_[kShards];
};

/// \brief Last-value (Set) / high-watermark (UpdateMax) instrument. Like
/// Counter, it records regardless of the kill switch.
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }

  /// Raises the gauge to `v` if larger (e.g. peak queue depth).
  void UpdateMax(int64_t v) {
    int64_t cur = value_.load(std::memory_order_relaxed);
    while (v > cur &&
           !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  int64_t Get() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// \brief Log2-bucketed histogram of non-negative integer samples
/// (typically nanoseconds). Bucket 0 holds the value 0; bucket b >= 1
/// holds [2^(b-1), 2^b). Quantiles resolve to the upper bound of the
/// containing bucket, so a reported p99 is within 2x of the true value —
/// the right fidelity for latency regressions at zero allocation cost.
class Histogram {
 public:
  static constexpr size_t kBuckets = 64;

  void Record(uint64_t value) {
    if (!Enabled()) return;
    buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }

  /// Bucket index for a sample: 0 for 0, else 1 + floor(log2(value)).
  static size_t BucketIndex(uint64_t value);
  /// Smallest sample the bucket admits (inclusive).
  static uint64_t BucketLowerBound(size_t bucket);
  /// Largest sample the bucket admits (inclusive).
  static uint64_t BucketUpperBound(size_t bucket);
  /// Quantile over an external kBuckets-sized count array (merged windows);
  /// same semantics as Quantile(). Returns 0 when `count` is 0.
  static uint64_t QuantileFromBuckets(const uint64_t* buckets, uint64_t count,
                                      double q);

  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t Sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t BucketCount(size_t bucket) const {
    return buckets_[bucket].load(std::memory_order_relaxed);
  }

  /// Value below which a fraction >= q of samples fall (upper bound of the
  /// containing bucket). q in [0, 1]; returns 0 on an empty histogram.
  uint64_t Quantile(double q) const;

  double Mean() const {
    const uint64_t n = Count();
    return n == 0 ? 0.0 : static_cast<double>(Sum()) / static_cast<double>(n);
  }

  void Reset();

 private:
  std::atomic<uint64_t> buckets_[kBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
};

/// \brief Point-in-time view of one histogram: count, sum, and bucket-upper
/// -bound quantiles. Integer-only, so an empty histogram snapshots to all
/// zeros — never NaN.
struct HistogramSnapshot {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t p50 = 0;
  uint64_t p95 = 0;
  uint64_t p99 = 0;
};

/// \brief Aggregate over the most recent slots of a WindowedHistogram's
/// ring. `ticks` is the logical clock (rotations since reset); `slots` is
/// how many sub-histograms were merged (the current partial slot counts).
struct WindowSnapshot {
  uint64_t ticks = 0;
  uint64_t slots = 0;
  HistogramSnapshot window;
};

/// \brief Histogram with a sliding window: samples land in a cumulative
/// histogram *and* the current slot of a ring of kRingSize sub-histograms.
/// Tick() — a logical clock driven by the caller (e.g. every N requests),
/// never wall time — rotates the ring, so SnapshotWindow() answers "what is
/// p99 over the last few ticks" while the cumulative view keeps the
/// since-boot totals. Record/Tick are no-ops when obs is disabled, which
/// preserves the obs-on ≡ obs-off determinism contract.
///
/// Concurrency: Record is wait-free; a Record racing a Tick may land in the
/// slot being recycled and be dropped from the window (never from the
/// cumulative view) — monitoring-grade fidelity, by design.
class WindowedHistogram {
 public:
  static constexpr size_t kRingSize = 8;

  /// `cumulative` must outlive this object; the registry wires it to the
  /// plain histogram registered under the same name.
  explicit WindowedHistogram(Histogram* cumulative) : cumulative_(cumulative) {}

  void Record(uint64_t value) {
    if (!Enabled()) return;
    cumulative_->Record(value);
    ring_[ticks_.load(std::memory_order_acquire) % kRingSize].Record(value);
  }

  /// Advances the logical clock and recycles the slot the window rotates
  /// into. No-op when obs is disabled (rotation only under Enabled()).
  void Tick();

  /// Merged view of the last `last_n` slots (clamped to what the ring holds
  /// and to how many ticks have happened). Includes the current partial
  /// slot, so telemetry is live even before the first rotation.
  WindowSnapshot SnapshotWindow(size_t last_n = kRingSize) const;

  const Histogram& Cumulative() const { return *cumulative_; }
  uint64_t Ticks() const { return ticks_.load(std::memory_order_relaxed); }

  /// Clears the ring and the logical clock. The shared cumulative histogram
  /// is owned by the registry and reset there.
  void Reset();

 private:
  Histogram* cumulative_;
  Histogram ring_[kRingSize];
  std::atomic<uint64_t> ticks_{0};  // current slot = ticks_ % kRingSize
};

/// \brief Append-only sequence of doubles (per-epoch loss / grad-norm /
/// step-time trajectories). Mutex-guarded — meant for once-per-epoch
/// appends, not per-sample traffic.
class Series {
 public:
  void Append(double v);
  std::vector<double> Values() const;
  size_t Size() const;
  void Reset();

 private:
  mutable std::mutex mu_;
  std::vector<double> values_;
};

/// \brief Wall-time attribution slot for one named scope. `total_ns` is
/// inclusive of nested spans, `self_ns` excludes time attributed to child
/// spans opened on the same thread.
struct ScopeStats {
  std::atomic<uint64_t> total_ns{0};
  std::atomic<uint64_t> self_ns{0};
  std::atomic<uint64_t> count{0};

  void Reset() {
    total_ns.store(0, std::memory_order_relaxed);
    self_ns.store(0, std::memory_order_relaxed);
    count.store(0, std::memory_order_relaxed);
  }
};

/// \brief RAII trace span: attributes the enclosed wall time to a scope
/// and, on the same thread, subtracts it from the parent span's self time.
/// Spans on different pool workers nest per thread (each worker keeps its
/// own span stack), so per-chunk spans under ParallelFor are safe.
///
/// When a `name` is supplied (RETINA_OBS_SPAN always does) and a timeline
/// trace session is active (common/trace.h), the span additionally emits
/// begin/end events under the thread's current trace context. `name` must
/// outlive the trace session — string literals qualify.
class Span {
 public:
  explicit Span(ScopeStats* scope, const char* name = nullptr);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  ScopeStats* scope_;  // nullptr when obs is disabled at construction
  std::chrono::steady_clock::time_point start_;
  uint64_t child_ns_ = 0;
  Span* parent_ = nullptr;
  // Timeline-trace state; zero/null unless tracing was on at construction.
  const char* trace_name_ = nullptr;
  uint64_t trace_span_id_ = 0;
  uint64_t trace_saved_trace_id_ = 0;
  uint64_t trace_saved_span_id_ = 0;
};

/// \brief Value snapshot of the registry's counters, gauges, histograms,
/// and windowed histograms — the payload of the serve-path kMetricsResponse
/// and the input to SnapshotDelta. Keys are instrument names (sorted by
/// std::map).
struct RegistrySnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
  std::map<std::string, WindowSnapshot> windows;
};

/// \brief Process-wide registry of named instruments. Get* registers on
/// first use and returns a pointer that stays valid for the life of the
/// process; Reset() zeroes values but never invalidates pointers.
class Registry {
 public:
  static Registry& Global();

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);
  Series* GetSeries(const std::string& name);
  ScopeStats* GetScope(const std::string& name);

  /// Windowed histogram whose cumulative side IS the plain histogram
  /// registered under the same name — recording through the windowed handle
  /// feeds both views; exports and older callers see the cumulative
  /// histogram unchanged.
  WindowedHistogram* GetWindowedHistogram(const std::string& name);

  /// Ticks every registered windowed histogram — the per-process logical
  /// clock for window rotation. No-op when obs is disabled.
  void TickWindows();

  /// Point-in-time values of all counters, gauges, histograms, and windows.
  RegistrySnapshot TakeSnapshot() const;

  /// Delta view between two snapshots: counters are after-before (clamped
  /// at 0 if an instrument was reset in between), gauges are the signed
  /// difference, and histograms/windows pass through from `after` (deltas
  /// do not compose over quantiles). Keys are the union of both inputs.
  static RegistrySnapshot SnapshotDelta(const RegistrySnapshot& before,
                                        const RegistrySnapshot& after);

  /// Prometheus text exposition of counters, gauges, and histograms
  /// (cumulative `_bucket`/`_sum`/`_count` with `le` labels), plus windowed
  /// p50/p95/p99 gauges. Families are `retina_`-prefixed, typed, sorted by
  /// name, and unique.
  std::string ToPrometheus() const;

  /// Zeroes every registered instrument (pointers remain valid).
  void Reset();

  /// Samples process-level gauges into the registry — currently
  /// `process.peak_rss_bytes` from /proc/self/status VmHWM (0 on
  /// non-Linux). Meant to be called once at export time, right before
  /// ToJson / SummaryTable.
  void SampleProcessGauges();

  /// Full dump: {"counters": {...}, "gauges": {...}, "histograms": {...},
  /// "windows": {...}, "series": {...}, "scopes": {...}} with histogram
  /// quantiles and non-empty buckets inlined. Stable key order (sorted by
  /// name).
  std::string ToJson() const;

  /// Human-readable multi-table summary (counters/gauges, histograms with
  /// p50/p95/p99, scopes with total/self milliseconds). Empty sections are
  /// omitted; returns "" when nothing has been recorded.
  std::string SummaryTable() const;

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

 private:
  Registry() = default;
  struct Impl;
  Impl& impl() const;
};

}  // namespace retina::obs

// Attributes the enclosing block's wall time to the named scope. The
// registry lookup happens once (function-local static); the per-entry cost
// is the Span constructor.
#define RETINA_OBS_CONCAT_INNER(a, b) a##b
#define RETINA_OBS_CONCAT(a, b) RETINA_OBS_CONCAT_INNER(a, b)

#ifdef RETINA_OBS_DISABLED
#define RETINA_OBS_SPAN(name)
#else
#define RETINA_OBS_SPAN(name)                                            \
  static ::retina::obs::ScopeStats* RETINA_OBS_CONCAT(retina_obs_scope_, \
                                                      __LINE__) =        \
      ::retina::obs::Registry::Global().GetScope(name);                  \
  ::retina::obs::Span RETINA_OBS_CONCAT(retina_obs_span_, __LINE__)(     \
      RETINA_OBS_CONCAT(retina_obs_scope_, __LINE__), name)
#endif

#endif  // RETINA_COMMON_OBS_H_
