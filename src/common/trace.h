// retina::obs timeline tracer — answers *which* request was slow and what
// it did, where the aggregate instruments in common/obs.h only answer "how
// slow on average". Each thread owns a bounded buffer of timestamped
// begin/end/instant events; a thread-local trace context (trace id +
// current span id) is captured by retina::par at job submission and
// restored inside pool workers, so per-chunk events nest under the
// submitting span even though they run on a different thread. The whole
// session exports as Chrome trace_event JSON loadable in chrome://tracing
// or Perfetto (and consumed by tools/report.py).
//
// Determinism contract: identical to the rest of retina::obs — the tracer
// is an observer. Starting, stopping, or compiling out tracing must never
// change control flow, RNG consumption, or arithmetic of instrumented
// code; obs_test pins bit-exactness of training and world generation with
// tracing on and off.
//
// Cost model:
//   - not started (the default): one relaxed atomic load + one predictable
//     branch per site — no TLS writes, no clock reads;
//   - compiled out (-DRETINA_OBS_DISABLED): sites reduce to nothing;
//   - started: one steady_clock read + one bounds-checked store into the
//     calling thread's private buffer per event. Buffers never grow and
//     never block: when one fills, further events on that thread are
//     dropped and counted (reported in the export's `otherData`).
//
// Threading: event emission is wait-free and touches only thread-local
// state. StartTracing / StopTracing / TraceToChromeJson must be called
// from quiescent points (no parallel work in flight) — the CLI starts
// tracing before the command runs and exports after it returns.

#ifndef RETINA_COMMON_TRACE_H_
#define RETINA_COMMON_TRACE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

#include "common/obs.h"

namespace retina::obs {

/// Ambient trace identity of the current thread. `trace_id` groups every
/// event of one logical request/batch/run; `span_id` is the innermost open
/// span (the parent of any event emitted next). Zero means "none".
struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
};

namespace internal {
extern std::atomic<bool> g_trace_enabled;

/// Emits a begin event parented under the current context, makes the new
/// span the current one, and returns its id. The previous context is
/// written to *saved_trace_id / *saved_span_id for the matching end call.
uint64_t TraceBeginSpan(const char* name, uint64_t* saved_trace_id,
                        uint64_t* saved_span_id);
/// Emits the end event for `span_id` and restores the saved context.
void TraceEndSpan(const char* name, uint64_t span_id, uint64_t saved_trace_id,
                  uint64_t saved_span_id);
}  // namespace internal

/// True between StartTracing and StopTracing (always false when obs is
/// compiled out). This is the one relaxed load every disabled site pays.
inline bool TraceEnabled() {
  if constexpr (!kCompiledIn) return false;
  return internal::g_trace_enabled.load(std::memory_order_relaxed);
}

/// Per-thread event-buffer capacity when StartTracing is called without an
/// explicit one and RETINA_TRACE_BUFFER is not set.
inline constexpr size_t kDefaultTraceBufferCapacity = 65536;

/// Begins a trace session: resets every thread's buffer (and drop
/// counters), re-arms span/trace id minting from 1, stamps the session
/// epoch, and enables emission. `buffer_capacity` is events per thread;
/// 0 means the RETINA_TRACE_BUFFER environment override or the default.
/// Must be called while no instrumented parallel work is in flight.
void StartTracing(size_t buffer_capacity = 0);

/// Stops emission. Buffered events stay readable until the next Start.
void StopTracing();

/// Total events dropped on full buffers since the last StartTracing.
uint64_t TraceDroppedEvents();

/// Total events currently buffered across all threads.
size_t TraceBufferedEvents();

/// Serializes the session as Chrome trace_event JSON: an object with a
/// `traceEvents` array (complete "X" events with microsecond ts/dur,
/// instant "i" events, thread-name metadata; every event carries
/// trace_id/span_id/parent_span_id in `args`) plus `otherData` holding
/// dropped_events / buffer_capacity. Begin events whose end was dropped or
/// is still open export as "B" events. Call from a quiescent point.
std::string TraceToChromeJson();

/// The calling thread's ambient context (zeros when tracing is off or
/// compiled out).
TraceContext CurrentTraceContext();

/// Overwrites the calling thread's ambient context. Used by the thread
/// pool to adopt the submitting thread's context inside workers; callers
/// are responsible for restoring the previous value.
void SetCurrentTraceContext(const TraceContext& ctx);

/// Ambient trace id of the calling thread (0 when none) — cheap enough for
/// the logging path.
uint64_t CurrentTraceId();

/// Mints a process-unique trace id (never 0).
uint64_t MintTraceId();

/// Emits a zero-duration event under the current context. `name` must
/// outlive the session (string literals; Registry keys also qualify).
void TraceInstant(const char* name);

/// \brief Establishes a per-request trace id for the enclosed scope: mints
/// a fresh id when none is ambient, inherits the existing one otherwise
/// (so per-tweet requests replayed inside a batch share the batch's id).
/// Restores the previous context on destruction.
class TraceRequestScope {
 public:
  TraceRequestScope() {
    if (!TraceEnabled()) return;
    const TraceContext ctx = CurrentTraceContext();
    if (ctx.trace_id != 0) return;  // nested: inherit the ambient id
    saved_ = ctx;
    TraceContext fresh = ctx;
    fresh.trace_id = MintTraceId();
    SetCurrentTraceContext(fresh);
    minted_ = true;
  }
  ~TraceRequestScope() {
    if (minted_) SetCurrentTraceContext(saved_);
  }

  TraceRequestScope(const TraceRequestScope&) = delete;
  TraceRequestScope& operator=(const TraceRequestScope&) = delete;

 private:
  TraceContext saved_;
  bool minted_ = false;
};

}  // namespace retina::obs

#endif  // RETINA_COMMON_TRACE_H_
