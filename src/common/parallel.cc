#include "common/parallel.h"

#include <algorithm>
#include <chrono>

#include "common/obs.h"
#include "common/trace.h"

namespace retina::par {

std::vector<ChunkRange> MakeChunks(size_t n, size_t grain) {
  std::vector<ChunkRange> chunks;
  if (n == 0) return chunks;
  if (grain == 0) grain = 1;
  const size_t ceil_div = (n + kMaxChunksPerLoop - 1) / kMaxChunksPerLoop;
  const size_t chunk_size = std::max(grain, ceil_div);
  chunks.reserve((n + chunk_size - 1) / chunk_size);
  for (size_t begin = 0; begin < n; begin += chunk_size) {
    ChunkRange chunk;
    chunk.index = chunks.size();
    chunk.begin = begin;
    chunk.end = std::min(n, begin + chunk_size);
    chunks.push_back(chunk);
  }
  return chunks;
}

namespace {

// Hot-path instruments, resolved once. Observers only: recording chunk
// timings never alters chunk layout or execution order, so the
// bit-exactness contract of the layer is untouched.
struct ParMetrics {
  obs::Counter* loops;
  obs::Counter* chunks;
  obs::Histogram* chunk_ns;

  static const ParMetrics& Get() {
    static const ParMetrics m = {
        obs::Registry::Global().GetCounter("par.loops"),
        obs::Registry::Global().GetCounter("par.chunks"),
        obs::Registry::Global().GetHistogram("par.chunk_ns"),
    };
    return m;
  }
};

}  // namespace

void ParallelForChunks(size_t n, size_t grain,
                       const std::function<void(const ChunkRange&)>& body,
                       ThreadPool* pool) {
  const std::vector<ChunkRange> chunks = MakeChunks(n, grain);
  if (chunks.empty()) return;
  if (pool == nullptr) pool = GlobalPool();
  if (!obs::Enabled()) {
    if (chunks.size() == 1) {
      // Avoid dispatch overhead (and pool traffic) for degenerate loops.
      body(chunks[0]);
      return;
    }
    pool->Run(chunks.size(), [&](size_t c) { body(chunks[c]); });
    return;
  }

  const ParMetrics& m = ParMetrics::Get();
  m.loops->Add(1);
  m.chunks->Add(chunks.size());
  const auto timed_body = [&](const ChunkRange& chunk) {
    // Timeline event per chunk; the worker inherited the submitting
    // thread's trace context from the pool, so the event nests under the
    // span that issued this loop.
    RETINA_OBS_SPAN("par.chunk");
    const auto start = std::chrono::steady_clock::now();
    body(chunk);
    m.chunk_ns->Record(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count()));
  };
  if (chunks.size() == 1) {
    timed_body(chunks[0]);
    return;
  }
  pool->Run(chunks.size(), [&](size_t c) { timed_body(chunks[c]); });
}

void ParallelFor(size_t n, size_t grain,
                 const std::function<void(size_t)>& body, ThreadPool* pool) {
  ParallelForChunks(
      n, grain,
      [&](const ChunkRange& chunk) {
        for (size_t i = chunk.begin; i < chunk.end; ++i) body(i);
      },
      pool);
}

}  // namespace retina::par
