// Tests for the retina::serve subsystem: the wire protocol's round-trip
// and corruption matrix, the bounded admission queue, the RequestHandler's
// byte-identity to a direct in-process ScoringEngine, and the Server's
// end-to-end behavior over a real Unix-domain socket — concurrent
// clients, deterministic shed under a wedged worker, and the graceful
// drain (programmatic and via SIGTERM).

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <condition_variable>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/bounded_queue.h"
#include "common/obs.h"
#include "common/rng.h"
#include "common/trace.h"
#include "common/vec.h"
#include "core/feature_extractor.h"
#include "core/model_store.h"
#include "core/retina.h"
#include "core/retweet_task.h"
#include "core/scoring_engine.h"
#include "datagen/serialize.h"
#include "datagen/world.h"
#include "hatedetect/annotation.h"
#include "serve/client.h"
#include "serve/handler.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace retina::serve {
namespace {

// -------------------------------------------------------------- Protocol --

TEST(ProtocolTest, ScoreRequestRoundTrips) {
  ScoreRequest req;
  req.request_id = 0x0123456789ABCDEFull;
  req.tweet_id = 42;
  req.users = {0, 7, 0xFFFFFFFFu, 3};
  const std::string payload = EncodeScoreRequest(req);
  auto type = PeekMessageType(payload);
  ASSERT_TRUE(type.ok());
  EXPECT_EQ(type.ValueOrDie(), MessageType::kScoreRequest);
  ScoreRequest out;
  ASSERT_TRUE(DecodeScoreRequest(payload, &out).ok());
  EXPECT_EQ(out.request_id, req.request_id);
  EXPECT_EQ(out.tweet_id, req.tweet_id);
  EXPECT_EQ(out.users, req.users);
}

TEST(ProtocolTest, EmptyUserListRoundTrips) {
  ScoreRequest req;
  req.request_id = 1;
  req.tweet_id = 0;
  const std::string payload = EncodeScoreRequest(req);
  ScoreRequest out;
  out.users = {9, 9, 9};  // must be cleared by decode
  ASSERT_TRUE(DecodeScoreRequest(payload, &out).ok());
  EXPECT_TRUE(out.users.empty());
}

TEST(ProtocolTest, ScoreResponseRoundTripsExactBitPatterns) {
  // Scores travel as f64 bit patterns: denormals, negative zero, and NaN
  // payloads must survive unchanged.
  ScoreResponse resp;
  resp.request_id = 77;
  resp.code = ResponseCode::kOk;
  resp.scores = {0.125, -0.0, 5e-324, std::nan("0x5"), 1.0 / 3.0};
  const std::string payload = EncodeScoreResponse(resp);
  ScoreResponse out;
  ASSERT_TRUE(DecodeScoreResponse(payload, &out).ok());
  EXPECT_EQ(out.request_id, 77u);
  EXPECT_EQ(out.code, ResponseCode::kOk);
  ASSERT_EQ(out.scores.size(), resp.scores.size());
  for (size_t i = 0; i < resp.scores.size(); ++i) {
    EXPECT_EQ(std::memcmp(&out.scores[i], &resp.scores[i], sizeof(double)),
              0)
        << "score " << i;
  }
}

TEST(ProtocolTest, ErrorResponseCarriesMessage) {
  for (const ResponseCode code :
       {ResponseCode::kShed, ResponseCode::kError}) {
    ScoreResponse resp;
    resp.request_id = 5;
    resp.code = code;
    resp.message = "tweet_id out of range";
    ScoreResponse out;
    ASSERT_TRUE(DecodeScoreResponse(EncodeScoreResponse(resp), &out).ok());
    EXPECT_EQ(out.code, code);
    EXPECT_EQ(out.message, resp.message);
    EXPECT_TRUE(out.scores.empty());
  }
}

TEST(ProtocolTest, ScoreRequestCarriesTraceContext) {
  ScoreRequest req;
  req.request_id = 8;
  req.tweet_id = 2;
  req.users = {1, 2, 3};
  req.trace_id = 0xAABBCCDDEEFF0011ull;
  req.span_id = 0x77;
  ScoreRequest out;
  ASSERT_TRUE(DecodeScoreRequest(EncodeScoreRequest(req), &out).ok());
  EXPECT_EQ(out.trace_id, req.trace_id);
  EXPECT_EQ(out.span_id, req.span_id);
  // Unset context travels as zeros (the "no trace" wire value).
  ScoreRequest plain;
  plain.request_id = 9;
  plain.tweet_id = 1;
  out.trace_id = 1;  // must be overwritten by decode
  out.span_id = 1;
  ASSERT_TRUE(DecodeScoreRequest(EncodeScoreRequest(plain), &out).ok());
  EXPECT_EQ(out.trace_id, 0u);
  EXPECT_EQ(out.span_id, 0u);
}

TEST(ProtocolTest, MetricsRoundTripsTypedSnapshot) {
  MetricsRequest req;
  req.request_id = 40;
  MetricsRequest req_out;
  ASSERT_TRUE(DecodeMetricsRequest(EncodeMetricsRequest(req), &req_out).ok());
  EXPECT_EQ(req_out.request_id, 40u);

  MetricsResponse resp;
  resp.request_id = 40;
  resp.snapshot.counters = {{"serve.requests", 7}, {"serve.shed", 0}};
  resp.snapshot.gauges = {{"serve.queue.depth_peak", 3},
                          {"obs_test.negative", -123}};
  obs::HistogramSnapshot h;
  h.count = 9;
  h.sum = 900;
  h.p50 = 63;
  h.p95 = 127;
  h.p99 = 255;
  resp.snapshot.histograms = {{"serve.handle_ns", h}};
  obs::WindowSnapshot w;
  w.ticks = 5;
  w.slots = 5;
  w.window = h;
  resp.snapshot.windows = {{"serve.handle_ns", w}};

  const std::string payload = EncodeMetricsResponse(resp);
  auto type = PeekMessageType(payload);
  ASSERT_TRUE(type.ok());
  EXPECT_EQ(type.ValueOrDie(), MessageType::kMetricsResponse);
  MetricsResponse out;
  ASSERT_TRUE(DecodeMetricsResponse(payload, &out).ok());
  EXPECT_EQ(out.request_id, 40u);
  EXPECT_EQ(out.snapshot.counters, resp.snapshot.counters);
  EXPECT_EQ(out.snapshot.gauges, resp.snapshot.gauges);
  ASSERT_EQ(out.snapshot.histograms.count("serve.handle_ns"), 1u);
  const obs::HistogramSnapshot& hg =
      out.snapshot.histograms.at("serve.handle_ns");
  EXPECT_EQ(hg.count, 9u);
  EXPECT_EQ(hg.sum, 900u);
  EXPECT_EQ(hg.p99, 255u);
  ASSERT_EQ(out.snapshot.windows.count("serve.handle_ns"), 1u);
  const obs::WindowSnapshot& wg = out.snapshot.windows.at("serve.handle_ns");
  EXPECT_EQ(wg.ticks, 5u);
  EXPECT_EQ(wg.slots, 5u);
  EXPECT_EQ(wg.window.p50, 63u);
}

TEST(ProtocolTest, MetricsDuplicateKeysAreCorrupt) {
  MetricsResponse resp;
  resp.request_id = 1;
  resp.snapshot.counters = {{"dup_aa", 1}, {"dup_ab", 2}};
  std::string payload = EncodeMetricsResponse(resp);
  const size_t pos = payload.find("dup_ab");
  ASSERT_NE(pos, std::string::npos);
  payload.replace(pos, 6, "dup_aa");  // same length, now a duplicate key
  MetricsResponse out;
  const Status st = DecodeMetricsResponse(payload, &out);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("duplicate"), std::string::npos)
      << st.ToString();
}

TEST(ProtocolTest, CorruptHeadersAreStatusErrors) {
  ScoreRequest req;
  req.request_id = 3;
  req.tweet_id = 4;
  req.users = {1, 2};
  const std::string good = EncodeScoreRequest(req);
  ScoreRequest out;

  std::string bad = good;
  bad[0] ^= 0x01;  // magic
  EXPECT_FALSE(DecodeScoreRequest(bad, &out).ok());

  // Versions other than kProtocolVersion, including the retired v1 (whose
  // score requests had no trace tail), are corrupt.
  for (const uint8_t version : {0x7F, 0x01}) {
    bad = good;
    bad[4] = static_cast<char>(version);
    EXPECT_FALSE(DecodeScoreRequest(bad, &out).ok()) << int{version};
    EXPECT_FALSE(PeekMessageType(bad).ok()) << int{version};
  }

  // Unknown types, including 3 and 4 (the retired stats pair).
  for (const uint8_t type : {0x66, 0x03, 0x04}) {
    bad = good;
    bad[6] = static_cast<char>(type);
    EXPECT_FALSE(DecodeScoreRequest(bad, &out).ok()) << int{type};
    EXPECT_FALSE(PeekMessageType(bad).ok()) << int{type};
  }

  bad = good;
  bad[7] = 0x01;  // reserved byte must be zero
  EXPECT_FALSE(DecodeScoreRequest(bad, &out).ok());

  // Right header, wrong body type for the decoder.
  MetricsRequest mreq;
  EXPECT_FALSE(DecodeMetricsRequest(good, &mreq).ok());
}

TEST(ProtocolTest, ParseTargetAcceptsUnixTcpAndBarePaths) {
  struct Case {
    const char* uri;
    const char* parsed;  ///< Describe() of the result; nullptr = rejected
  };
  for (const Case& c : {Case{"unix:/tmp/a.sock", "unix:/tmp/a.sock"},
                        Case{"/tmp/b.sock", "unix:/tmp/b.sock"},
                        Case{"tcp:localhost:7070", "tcp:localhost:7070"},
                        Case{"tcp::7070", "tcp:127.0.0.1:7070"},
                        Case{"", nullptr}, Case{"unix:", nullptr},
                        Case{"tcp:7070", nullptr}, Case{"tcp:host:", nullptr}}) {
    Target target;
    const bool ok = ParseTarget(c.uri, &target);
    ASSERT_EQ(ok, c.parsed != nullptr) << c.uri;
    if (ok) {
      EXPECT_EQ(target.Describe(), c.parsed) << c.uri;
    }
  }
}

TEST(ProtocolTest, EveryTruncationIsAStatusErrorNeverUB) {
  // io::Checkpoint's corruption discipline: any prefix of a valid message
  // decodes to an error. Sweep every truncation point of every type.
  ScoreRequest req;
  req.request_id = 1;
  req.tweet_id = 2;
  req.users = {3, 4, 5};
  ScoreResponse ok_resp;
  ok_resp.request_id = 1;
  ok_resp.scores = {1.5, -2.5};
  ScoreResponse err_resp;
  err_resp.request_id = 1;
  err_resp.code = ResponseCode::kError;
  err_resp.message = "why";
  MetricsResponse metrics;
  metrics.request_id = 1;
  metrics.snapshot.counters = {{"c", 3}};
  metrics.snapshot.gauges = {{"g", -3}};
  obs::HistogramSnapshot mh;
  mh.count = 1;
  mh.sum = 2;
  metrics.snapshot.histograms = {{"h", mh}};
  obs::WindowSnapshot mw;
  mw.ticks = 1;
  mw.slots = 1;
  mw.window = mh;
  metrics.snapshot.windows = {{"w", mw}};
  const std::string payloads[] = {
      EncodeScoreRequest(req), EncodeScoreResponse(ok_resp),
      EncodeScoreResponse(err_resp), EncodeMetricsRequest(MetricsRequest{1}),
      EncodeMetricsResponse(metrics)};
  for (const std::string& payload : payloads) {
    for (size_t cut = 0; cut < payload.size(); ++cut) {
      const std::string_view prefix(payload.data(), cut);
      ScoreRequest r;
      ScoreResponse sr;
      MetricsRequest mr;
      MetricsResponse mrs;
      EXPECT_FALSE(DecodeScoreRequest(prefix, &r).ok()) << "cut " << cut;
      EXPECT_FALSE(DecodeScoreResponse(prefix, &sr).ok()) << "cut " << cut;
      EXPECT_FALSE(DecodeMetricsRequest(prefix, &mr).ok()) << "cut " << cut;
      EXPECT_FALSE(DecodeMetricsResponse(prefix, &mrs).ok()) << "cut " << cut;
    }
    // Trailing garbage is corruption too, not ignorable padding.
    const std::string padded = payload + '\0';
    ScoreRequest r;
    ScoreResponse sr;
    MetricsRequest mr;
    MetricsResponse mrs;
    EXPECT_FALSE(DecodeScoreRequest(padded, &r).ok());
    EXPECT_FALSE(DecodeScoreResponse(padded, &sr).ok());
    EXPECT_FALSE(DecodeMetricsRequest(padded, &mr).ok());
    EXPECT_FALSE(DecodeMetricsResponse(padded, &mrs).ok());
  }
}

TEST(ProtocolTest, FrameRoundTripsOverSocketpair) {
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ScoreRequest req;
  req.request_id = 21;
  req.tweet_id = 8;
  req.users = {1, 2, 3, 4};
  const std::string payload = EncodeScoreRequest(req);
  ASSERT_TRUE(WriteFrame(fds[0], payload).ok());
  std::string got;
  bool eof = false;
  ASSERT_TRUE(ReadFrame(fds[1], &got, &eof).ok());
  EXPECT_FALSE(eof);
  EXPECT_EQ(got, payload);
  // Clean close -> EOF at the frame boundary, OK + eof flag.
  close(fds[0]);
  ASSERT_TRUE(ReadFrame(fds[1], &got, &eof).ok());
  EXPECT_TRUE(eof);
  close(fds[1]);
}

// The v2 wire bytes, pinned: every encoder and one WriteFrame produce
// exactly these bytes, so a codec change cannot move a byte on the wire.
std::string ToHex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (const unsigned char c : bytes) {
    hex.push_back(kDigits[c >> 4]);
    hex.push_back(kDigits[c & 0xF]);
  }
  return hex;
}

TEST(ProtocolTest, GoldenBytesPinEveryEncoder) {
  ScoreRequest req;
  req.request_id = 0x0102030405060708ull;
  req.tweet_id = 9;
  req.users = {1, 0xFFFFFFFEu};
  req.trace_id = 0xA;
  req.span_id = 0xB;
  EXPECT_EQ(ToHex(EncodeScoreRequest(req)),
            "5245545002000100080706050403020109000000000000000200000001000000"
            "feffffff0a000000000000000b00000000000000");

  ScoreResponse ok;
  ok.request_id = 3;
  ok.scores = {0.5, -0.0};
  EXPECT_EQ(ToHex(EncodeScoreResponse(ok)),
            "524554500200020003000000000000000002000000000000000000e03f000000"
            "0000000080");
  ScoreResponse shed;
  shed.request_id = 4;
  shed.code = ResponseCode::kShed;
  shed.message = "busy";
  EXPECT_EQ(ToHex(EncodeScoreResponse(shed)),
            "52455450020002000400000000000000010400000062757379");
  ScoreResponse error;
  error.request_id = 5;
  error.code = ResponseCode::kError;
  error.message = "bad";
  EXPECT_EQ(ToHex(EncodeScoreResponse(error)),
            "524554500200020005000000000000000203000000626164");

  MetricsRequest mreq;
  mreq.request_id = 6;
  EXPECT_EQ(ToHex(EncodeMetricsRequest(mreq)),
            "52455450020005000600000000000000");
  MetricsResponse mresp;
  mresp.request_id = 7;
  mresp.snapshot.counters = {{"c", 2}};
  mresp.snapshot.gauges = {{"g", -2}};
  obs::HistogramSnapshot h;
  h.count = 1;
  h.sum = 2;
  h.p50 = 3;
  h.p95 = 4;
  h.p99 = 5;
  mresp.snapshot.histograms = {{"h", h}};
  obs::WindowSnapshot w;
  w.ticks = 6;
  w.slots = 7;
  w.window = h;
  mresp.snapshot.windows = {{"w", w}};
  EXPECT_EQ(ToHex(EncodeMetricsResponse(mresp)),
            "5245545002000600070000000000000001000000010000006302000000000000"
            "00010000000100000067feffffffffffffff0100000001000000680100000000"
            "0000000200000000000000030000000000000004000000000000000500000000"
            "0000000100000001000000770600000000000000070000000000000001000000"
            "0000000002000000000000000300000000000000040000000000000005000000"
            "00000000");

  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ASSERT_TRUE(WriteFrame(fds[0], EncodeMetricsRequest(mreq)).ok());
  close(fds[0]);
  std::string wire;
  char buf[64];
  ssize_t got;
  while ((got = recv(fds[1], buf, sizeof(buf), 0)) > 0) {
    wire.append(buf, static_cast<size_t>(got));
  }
  close(fds[1]);
  EXPECT_EQ(ToHex(wire), "1000000052455450020005000600000000000000");
}

// A count whose byte size is 2^32 wraps to 0 in 32-bit arithmetic, which
// would make a short body look consistent and size a 4 GiB list. Both
// decoders must reject these before any list is sized.
TEST(ProtocolTest, WrappedCountsAreStatusErrors) {
  ScoreRequest req;
  req.request_id = 1;
  std::string request = EncodeScoreRequest(req);
  ASSERT_EQ(request.size(), 44u);
  const uint32_t users = 1u << 30;  // 4 * 2^30 = 2^32
  std::memcpy(request.data() + 24, &users, 4);
  ScoreRequest req_out;
  const Status req_st = DecodeScoreRequest(request, &req_out);
  EXPECT_FALSE(req_st.ok());
  EXPECT_TRUE(req_out.users.empty());

  ScoreResponse resp;
  resp.request_id = 2;
  std::string response = EncodeScoreResponse(resp);
  ASSERT_EQ(response.size(), 21u);
  const uint32_t scores = 1u << 29;  // 8 * 2^29 = 2^32
  std::memcpy(response.data() + 17, &scores, 4);
  ScoreResponse resp_out;
  const Status resp_st = DecodeScoreResponse(response, &resp_out);
  EXPECT_FALSE(resp_st.ok());
  EXPECT_TRUE(resp_out.scores.empty());
}

TEST(ProtocolTest, TruncatedFrameAndBadLengthPrefixAreErrors) {
  {
    // EOF in the middle of a frame body is an error, not a clean EOF.
    int fds[2];
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    const uint32_t claimed = 100;
    char head[4];
    std::memcpy(head, &claimed, 4);
    ASSERT_EQ(send(fds[0], head, 4, 0), 4);
    ASSERT_EQ(send(fds[0], "xy", 2, 0), 2);
    close(fds[0]);
    std::string got;
    bool eof = false;
    EXPECT_FALSE(ReadFrame(fds[1], &got, &eof).ok());
    close(fds[1]);
  }
  for (const uint32_t bad_len : {uint32_t{0}, kMaxFramePayloadBytes + 1}) {
    int fds[2];
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    char head[4];
    std::memcpy(head, &bad_len, 4);
    ASSERT_EQ(send(fds[0], head, 4, 0), 4);
    std::string got;
    bool eof = false;
    EXPECT_FALSE(ReadFrame(fds[1], &got, &eof).ok()) << bad_len;
    close(fds[0]);
    close(fds[1]);
  }
}

// ---------------------------------------------------------- BoundedQueue --

TEST(BoundedQueueTest, FifoAndShedOnFull) {
  par::BoundedQueue<int> q(2);
  EXPECT_EQ(q.capacity(), 2u);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_FALSE(q.TryPush(3));  // full -> shed, no block
  int out = 0;
  EXPECT_TRUE(q.Pop(&out));
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(q.TryPush(4));
  EXPECT_TRUE(q.Pop(&out));
  EXPECT_EQ(out, 2);
  EXPECT_TRUE(q.Pop(&out));
  EXPECT_EQ(out, 4);
  EXPECT_EQ(q.size(), 0u);
}

TEST(BoundedQueueTest, CloseDeliversQueuedItemsThenReportsEmpty) {
  par::BoundedQueue<int> q(4);
  ASSERT_TRUE(q.TryPush(10));
  ASSERT_TRUE(q.TryPush(11));
  q.Close();
  EXPECT_TRUE(q.closed());
  EXPECT_FALSE(q.TryPush(12));  // no admission after close
  int out = 0;
  EXPECT_TRUE(q.Pop(&out));  // graceful drain still hands out items
  EXPECT_EQ(out, 10);
  EXPECT_TRUE(q.Pop(&out));
  EXPECT_EQ(out, 11);
  EXPECT_FALSE(q.Pop(&out));  // closed + empty
  q.Close();                  // idempotent
}

TEST(BoundedQueueTest, ZeroCapacityClampsToOne) {
  par::BoundedQueue<int> q(0);
  EXPECT_EQ(q.capacity(), 1u);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_FALSE(q.TryPush(2));
}

TEST(BoundedQueueTest, ConcurrentProducersAndConsumersDeliverEverything) {
  par::BoundedQueue<uint64_t> q(8);
  constexpr size_t kProducers = 4;
  constexpr size_t kConsumers = 3;
  constexpr uint64_t kPerProducer = 500;
  std::atomic<uint64_t> accepted{0};
  std::atomic<uint64_t> popped_sum{0};
  std::atomic<uint64_t> popped_count{0};
  std::vector<std::thread> threads;
  for (size_t p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (uint64_t i = 0; i < kPerProducer; ++i) {
        const uint64_t v = p * kPerProducer + i + 1;
        while (!q.TryPush(v)) std::this_thread::yield();
        accepted.fetch_add(v, std::memory_order_relaxed);
      }
    });
  }
  std::vector<std::thread> consumers;
  for (size_t c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      uint64_t v = 0;
      while (q.Pop(&v)) {
        popped_sum.fetch_add(v, std::memory_order_relaxed);
        popped_count.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  q.Close();
  for (std::thread& t : consumers) t.join();
  EXPECT_EQ(popped_count.load(), kProducers * kPerProducer);
  EXPECT_EQ(popped_sum.load(), accepted.load());  // nothing lost or duped
}

TEST(BoundedQueueTest, TryPopBatchDrainsFifoWithoutBlocking) {
  par::BoundedQueue<int> q(8);
  std::vector<int> out = {-1};  // batch pops append, never clobber
  EXPECT_EQ(q.TryPopBatch(&out, 4), 0u);  // empty queue: no items, no block
  EXPECT_EQ(out, std::vector<int>{-1});
  for (int v = 1; v <= 5; ++v) ASSERT_TRUE(q.TryPush(v));
  EXPECT_EQ(q.TryPopBatch(&out, 3), 3u);
  EXPECT_EQ(out, (std::vector<int>{-1, 1, 2, 3}));
  // Asking for more than is queued drains what exists, still FIFO.
  EXPECT_EQ(q.TryPopBatch(&out, 10), 2u);
  EXPECT_EQ(out, (std::vector<int>{-1, 1, 2, 3, 4, 5}));
  // Empty queue: zero items, no block (this is the linger-poll primitive).
  EXPECT_EQ(q.TryPopBatch(&out, 1), 0u);
  EXPECT_EQ(out.size(), 6u);
}

TEST(BoundedQueueTest, PopBatchBlocksForFirstItemThenDrainsRun) {
  par::BoundedQueue<int> q(8);
  std::vector<int> out;
  std::thread producer([&] {
    for (int v = 1; v <= 4; ++v) ASSERT_TRUE(q.TryPush(v));
  });
  // PopBatch must block like Pop until something arrives, then hand back
  // a contiguous FIFO run of up to max_items.
  ASSERT_TRUE(q.PopBatch(&out, 8));
  ASSERT_FALSE(out.empty());
  producer.join();
  // The first pop may have raced ahead of the producer; drain the rest —
  // the concatenation of runs must still be the FIFO sequence.
  while (out.size() < 4) ASSERT_TRUE(q.PopBatch(&out, 8));
  ASSERT_EQ(out.size(), 4u);
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i) + 1);  // FIFO across runs
  }
  // max_items == 0 clamps to 1 rather than spinning forever on nothing.
  ASSERT_TRUE(q.TryPush(99));
  std::vector<int> one;
  ASSERT_TRUE(q.PopBatch(&one, 0));
  EXPECT_EQ(one, std::vector<int>{99});
}

TEST(BoundedQueueTest, PopBatchAfterCloseDeliversPendingThenReportsClosed) {
  par::BoundedQueue<int> q(8);
  for (int v = 10; v < 13; ++v) ASSERT_TRUE(q.TryPush(v));
  q.Close();
  std::vector<int> out;
  ASSERT_TRUE(q.PopBatch(&out, 2));  // graceful drain, bounded run
  EXPECT_EQ(out, (std::vector<int>{10, 11}));
  ASSERT_TRUE(q.PopBatch(&out, 2));
  EXPECT_EQ(out, (std::vector<int>{10, 11, 12}));
  EXPECT_FALSE(q.PopBatch(&out, 2));  // closed + empty
  EXPECT_EQ(q.TryPopBatch(&out, 2), 0u);
  EXPECT_EQ(out.size(), 3u);  // failed pops never touch the output
}

TEST(BoundedQueueTest, FifoOrderSurvivesBatchedPopsUnderContention) {
  // One consumer popping in variable-size batches while a producer
  // pushes a monotone sequence: concatenating the batches must
  // reconstruct the sequence exactly. Run under TSan (ctest -L serve
  // builds include it in the sanitizer legs) this also races the batch
  // paths against TryPush for data-race coverage.
  par::BoundedQueue<uint64_t> q(16);
  constexpr uint64_t kTotal = 4000;
  std::thread producer([&] {
    for (uint64_t v = 0; v < kTotal; ++v) {
      while (!q.TryPush(v)) std::this_thread::yield();
    }
    q.Close();
  });
  std::vector<uint64_t> got;
  got.reserve(kTotal);
  std::vector<uint64_t> batch;
  size_t max_items = 1;
  while (true) {
    batch.clear();
    if (!q.PopBatch(&batch, max_items)) break;
    got.insert(got.end(), batch.begin(), batch.end());
    max_items = max_items % 7 + 1;  // vary run length 1..7
  }
  producer.join();
  ASSERT_EQ(got.size(), kTotal);
  for (uint64_t v = 0; v < kTotal; ++v) {
    ASSERT_EQ(got[v], v) << "batched pops reordered the queue";
  }
}

TEST(BoundedQueueTest, MixedBatchConsumersDeliverEverythingExactlyOnce) {
  // Multi-producer / multi-consumer stress where consumers use the batch
  // pops: checksum accounting proves nothing is lost or duplicated, and
  // TSan proves the new paths are race-free against the existing ones.
  par::BoundedQueue<uint64_t> q(8);
  constexpr size_t kProducers = 4;
  constexpr size_t kConsumers = 3;
  constexpr uint64_t kPerProducer = 500;
  std::atomic<uint64_t> accepted{0};
  std::atomic<uint64_t> popped_sum{0};
  std::atomic<uint64_t> popped_count{0};
  std::vector<std::thread> producers;
  for (size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (uint64_t i = 0; i < kPerProducer; ++i) {
        const uint64_t v = p * kPerProducer + i + 1;
        while (!q.TryPush(v)) std::this_thread::yield();
        accepted.fetch_add(v, std::memory_order_relaxed);
      }
    });
  }
  std::vector<std::thread> consumers;
  for (size_t c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&, c] {
      std::vector<uint64_t> batch;
      while (true) {
        batch.clear();
        // Odd consumers linger with TryPopBatch the way WorkerLoop does.
        if (!q.PopBatch(&batch, 4)) break;
        if (c % 2 == 1 && batch.size() < 4) {
          q.TryPopBatch(&batch, 4 - batch.size());
        }
        for (const uint64_t v : batch) {
          popped_sum.fetch_add(v, std::memory_order_relaxed);
          popped_count.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : producers) t.join();
  q.Close();
  for (std::thread& t : consumers) t.join();
  EXPECT_EQ(popped_count.load(), kProducers * kPerProducer);
  EXPECT_EQ(popped_sum.load(), accepted.load());
}

// ------------------------------------------------------- Scoring fixture --

datagen::WorldConfig TestConfig() {
  datagen::WorldConfig config;
  config.scale = 0.04;
  config.num_users = 500;
  config.history_length = 10;
  config.news_per_day = 30.0;
  return config;
}

core::FeatureConfig TestFeatureConfig() {
  core::FeatureConfig config;
  config.history_size = 6;
  config.history_tfidf_dim = 40;
  config.news_tfidf_dim = 40;
  config.tweet_tfidf_dim = 40;
  config.news_window = 10;
  config.doc2vec_dim = 8;
  config.doc2vec_epochs = 1;
  return config;
}

struct Fixture {
  datagen::SyntheticWorld world;
  std::unique_ptr<core::FeatureExtractor> extractor;
  std::unique_ptr<core::Retina> model;
};

Fixture& SharedFixture() {
  static Fixture* fixture = [] {
    auto* f = new Fixture{
        datagen::SyntheticWorld::Generate(TestConfig(), 47), nullptr,
        nullptr};
    hatedetect::AnnotationOptions aopts;
    auto report = hatedetect::AnnotateWorld(&f->world, aopts);
    EXPECT_TRUE(report.ok());
    auto fx = core::FeatureExtractor::Build(f->world, TestFeatureConfig());
    EXPECT_TRUE(fx.ok());
    f->extractor =
        std::make_unique<core::FeatureExtractor>(std::move(fx).ValueOrDie());
    core::RetweetTaskOptions topts;
    topts.min_news = 10;
    topts.max_candidates = 16;
    auto task = core::BuildRetweetTask(*f->extractor, topts);
    EXPECT_TRUE(task.ok());
    const core::RetweetTask& t = task.ValueOrDie();
    core::RetinaOptions opts;
    opts.hidden = 10;
    opts.epochs = 1;
    f->model = std::make_unique<core::Retina>(t.user_dim, t.content_dim,
                                              t.embed_dim, t.NumIntervals(),
                                              opts);
    EXPECT_TRUE(f->model->Train(t).ok());
    return f;
  }();
  return *fixture;
}

/// Deterministic request stream over the fixture world.
std::vector<ScoreRequest> MakeRequests(const Fixture& f, size_t n,
                                       uint64_t seed) {
  Rng rng(seed);
  const uint64_t num_tweets = f.world.tweets().size();
  const uint64_t num_users = f.world.NumUsers();
  std::vector<ScoreRequest> reqs;
  reqs.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    ScoreRequest req;
    req.request_id = 1000 + i;
    req.tweet_id = rng.UniformInt(num_tweets);
    const size_t k = 1 + rng.UniformInt(8);
    for (size_t j = 0; j < k; ++j) {
      req.users.push_back(static_cast<uint32_t>(rng.UniformInt(num_users)));
    }
    reqs.push_back(std::move(req));
  }
  return reqs;
}

/// Direct in-process reference: a fresh engine scoring the same request.
Vec DirectScores(const Fixture& f, const ScoreRequest& req) {
  core::ScoringEngine engine(f.model.get(), f.extractor.get(), {});
  std::vector<datagen::NodeId> users(req.users.begin(), req.users.end());
  Vec scores;
  engine.ScoreTweetInto(f.world.tweets()[req.tweet_id], users, &scores);
  return scores;
}

void ExpectBitIdentical(const Vec& got, const Vec& want,
                        const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(std::memcmp(&got[i], &want[i], sizeof(double)), 0)
        << what << " score " << i;
  }
}

// -------------------------------------------------------- RequestHandler --

TEST(RequestHandlerTest, ByteIdenticalToDirectEngineAcrossWorkers) {
  auto& f = SharedFixture();
  RequestHandlerOptions opts;
  opts.num_workers = 3;
  auto handler = RequestHandler::Borrow(f.model.get(), f.extractor.get(), opts);
  ASSERT_EQ(handler->num_workers(), 3u);
  const auto requests = MakeRequests(f, 12, 61);
  for (size_t i = 0; i < requests.size(); ++i) {
    const ScoreRequest& req = requests[i];
    const Vec want = DirectScores(f, req);
    // Identical no matter which worker slot serves the request.
    for (size_t w = 0; w < handler->num_workers(); ++w) {
      ScoreResponse resp;
      handler->HandleScore(w, req, &resp);
      ASSERT_EQ(resp.code, ResponseCode::kOk) << resp.message;
      EXPECT_EQ(resp.request_id, req.request_id);
      ExpectBitIdentical(resp.scores, want,
                         "req " + std::to_string(i) + " worker " +
                             std::to_string(w));
    }
  }
}

TEST(RequestHandlerTest, OpenComputesNoUserFeaturesAndMatchesDirectEngine) {
  // The daemon's startup path: import the world CSV, load the bundle,
  // build the engines. None of it computes a user's features; the first
  // request does, and its bytes equal the in-process engine's.
  auto& f = SharedFixture();
  const std::filesystem::path root =
      std::filesystem::temp_directory_path() /
      ("retina_serve_open_test_" + std::to_string(::getpid()));
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);
  const std::string data_dir = (root / "world").string();
  const std::string model_dir = (root / "model").string();
  ASSERT_TRUE(datagen::ExportWorldCsv(f.world, data_dir).ok());
  ASSERT_TRUE(
      core::SaveScoringBundle(model_dir, *f.model, *f.extractor, {}).ok());

  const obs::Counter* computed = obs::Registry::Global().GetCounter(
      "features.history_blocks_computed");
  const uint64_t computed_before = computed->Get();
  RequestHandlerOptions opts;
  opts.num_workers = 2;
  auto opened = RequestHandler::Open(data_dir, model_dir, opts);
  std::filesystem::remove_all(root);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(computed->Get() - computed_before, 0u);

  RequestHandler& handler = *opened.ValueOrDie();
  for (const ScoreRequest& req : MakeRequests(f, 4, 67)) {
    ScoreResponse resp;
    handler.HandleScore(1, req, &resp);
    ASSERT_EQ(resp.code, ResponseCode::kOk) << resp.message;
    ExpectBitIdentical(resp.scores, DirectScores(f, req),
                       "req " + std::to_string(req.request_id));
  }
}

TEST(RequestHandlerTest, InvalidIdsBecomeErrorResponsesNeverCrashes) {
  auto& f = SharedFixture();
  auto handler = RequestHandler::Borrow(f.model.get(), f.extractor.get(), {});
  ScoreResponse resp;

  ScoreRequest req;
  req.request_id = 5;
  req.tweet_id = f.world.tweets().size();  // one past the end
  req.users = {0};
  handler->HandleScore(0, req, &resp);
  EXPECT_EQ(resp.code, ResponseCode::kError);
  EXPECT_EQ(resp.request_id, 5u);
  EXPECT_FALSE(resp.message.empty());

  req.tweet_id = 0;
  req.users = {static_cast<uint32_t>(f.world.NumUsers())};
  handler->HandleScore(0, req, &resp);
  EXPECT_EQ(resp.code, ResponseCode::kError);
  EXPECT_FALSE(resp.message.empty());

  // An empty candidate list is a valid request with an empty answer.
  req.users.clear();
  handler->HandleScore(0, req, &resp);
  EXPECT_EQ(resp.code, ResponseCode::kOk);
  EXPECT_TRUE(resp.scores.empty());
}

TEST(RequestHandlerTest, StatsExposeDatasetShape) {
  auto& f = SharedFixture();
  RequestHandlerOptions opts;
  opts.num_workers = 2;
  auto handler = RequestHandler::Borrow(f.model.get(), f.extractor.get(), opts);
  std::map<std::string, uint64_t> stats;
  handler->AppendStats(&stats);
  EXPECT_EQ(stats["handler.num_tweets"], f.world.tweets().size());
  EXPECT_EQ(stats["handler.num_users"], f.world.NumUsers());
  // The worker count is the server's serve.workers gauge, not a fact here.
  EXPECT_EQ(stats.count("handler.num_workers"), 0u);
}

TEST(RequestHandlerTest, CoalescedBatchIsByteIdenticalToUnbatched) {
  // The fused single-GEMM path must be a pure scheduling decision: entry
  // i of a same-tweet batch is bit-equal to handling reqs[i] alone.
  auto& f = SharedFixture();
  RequestHandlerOptions opts;
  opts.num_workers = 2;
  auto handler = RequestHandler::Borrow(f.model.get(), f.extractor.get(), opts);
  Rng rng(83);
  const uint64_t num_users = f.world.NumUsers();

  std::vector<ScoreRequest> reqs;
  for (size_t i = 0; i < 6; ++i) {
    ScoreRequest req;
    req.request_id = 7000 + i;
    req.tweet_id = 17;  // same hot tweet for every batch member
    const size_t k = 1 + rng.UniformInt(6);
    for (size_t j = 0; j < k; ++j) {
      req.users.push_back(static_cast<uint32_t>(rng.UniformInt(num_users)));
    }
    reqs.push_back(std::move(req));
  }
  std::vector<const ScoreRequest*> ptrs;
  for (const ScoreRequest& r : reqs) ptrs.push_back(&r);

  for (size_t w = 0; w < handler->num_workers(); ++w) {
    std::vector<ScoreResponse> batched;
    handler->HandleScoreBatch(w, ptrs, &batched);
    ASSERT_EQ(batched.size(), reqs.size());
    for (size_t i = 0; i < reqs.size(); ++i) {
      ScoreResponse lone;
      handler->HandleScore(w, reqs[i], &lone);
      ASSERT_EQ(batched[i].code, ResponseCode::kOk) << batched[i].message;
      EXPECT_EQ(batched[i].request_id, reqs[i].request_id);
      ExpectBitIdentical(batched[i].scores, lone.scores,
                         "batched vs lone entry " + std::to_string(i) +
                             " worker " + std::to_string(w));
      // And both equal the direct engine — the full chain is exact.
      ExpectBitIdentical(batched[i].scores, DirectScores(f, reqs[i]),
                         "batched vs direct entry " + std::to_string(i));
    }
  }
}

TEST(RequestHandlerTest, InvalidRequestInBatchErrorsAloneExactly) {
  // An invalid member of a fused batch must produce the same kError
  // response it would alone — byte-identical message — while its
  // neighbors score exactly as if it had never been queued.
  auto& f = SharedFixture();
  auto handler = RequestHandler::Borrow(f.model.get(), f.extractor.get(), {});

  ScoreRequest good_a;
  good_a.request_id = 1;
  good_a.tweet_id = 3;
  good_a.users = {0, 1, 2};
  ScoreRequest bad;
  bad.request_id = 2;
  bad.tweet_id = 3;
  bad.users = {static_cast<uint32_t>(f.world.NumUsers()), 1};  // oob user
  ScoreRequest good_b;
  good_b.request_id = 3;
  good_b.tweet_id = 3;
  good_b.users = {4, 5};

  std::vector<const ScoreRequest*> ptrs = {&good_a, &bad, &good_b};
  std::vector<ScoreResponse> batched;
  handler->HandleScoreBatch(0, ptrs, &batched);
  ASSERT_EQ(batched.size(), 3u);

  ScoreResponse lone_bad;
  handler->HandleScore(0, bad, &lone_bad);
  ASSERT_EQ(lone_bad.code, ResponseCode::kError);
  EXPECT_EQ(batched[1].code, ResponseCode::kError);
  EXPECT_EQ(batched[1].message, lone_bad.message);  // identical wording
  EXPECT_EQ(batched[1].request_id, 2u);
  EXPECT_TRUE(batched[1].scores.empty());

  ASSERT_EQ(batched[0].code, ResponseCode::kOk) << batched[0].message;
  ExpectBitIdentical(batched[0].scores, DirectScores(f, good_a),
                     "neighbor before invalid batch member");
  ASSERT_EQ(batched[2].code, ResponseCode::kOk) << batched[2].message;
  ExpectBitIdentical(batched[2].scores, DirectScores(f, good_b),
                     "neighbor after invalid batch member");

  // The same response vector answers an all-valid batch next: the slot
  // that held the error must not keep it.
  ScoreRequest good_c = good_b;
  good_c.request_id = 4;
  good_c.users = {6, 7};
  ptrs = {&good_a, &good_c, &good_b};
  handler->HandleScoreBatch(0, ptrs, &batched);
  ASSERT_EQ(batched.size(), 3u);
  const ScoreRequest* want[] = {&good_a, &good_c, &good_b};
  for (size_t i = 0; i < 3; ++i) {
    ASSERT_EQ(batched[i].code, ResponseCode::kOk)
        << "reused slot " << i << ": " << batched[i].message;
    EXPECT_EQ(batched[i].request_id, want[i]->request_id);
    EXPECT_TRUE(batched[i].message.empty());
    ExpectBitIdentical(batched[i].scores, DirectScores(f, *want[i]),
                       "reused slot " + std::to_string(i));
  }
}

TEST(RequestHandlerTest, MixedTweetBatchFallsBackByteIdentically) {
  // The dispatcher never forms mixed-tweet batches, but the Handler
  // contract covers them: the fallback loop must match lone handling.
  auto& f = SharedFixture();
  auto handler = RequestHandler::Borrow(f.model.get(), f.extractor.get(), {});
  const auto reqs = MakeRequests(f, 5, 91);  // random (distinct) tweet ids
  std::vector<const ScoreRequest*> ptrs;
  for (const ScoreRequest& r : reqs) ptrs.push_back(&r);
  std::vector<ScoreResponse> batched;
  handler->HandleScoreBatch(0, ptrs, &batched);
  ASSERT_EQ(batched.size(), reqs.size());
  for (size_t i = 0; i < reqs.size(); ++i) {
    ASSERT_EQ(batched[i].code, ResponseCode::kOk) << batched[i].message;
    ExpectBitIdentical(batched[i].scores, DirectScores(f, reqs[i]),
                       "mixed-tweet fallback entry " + std::to_string(i));
  }
}

// ----------------------------------------------------------- Server e2e --

std::string TestSocketPath(const char* tag) {
  // /tmp keeps the path far under sockaddr_un's sun_path limit, which a
  // deep build directory would not.
  char buf[96];
  std::snprintf(buf, sizeof(buf), "/tmp/retina_serve_%s_%d.sock", tag,
                static_cast<int>(getpid()));
  return buf;
}

Target UnixTarget(const std::string& path) {
  Target target;
  target.path = path;
  return target;
}

Target TcpTarget(uint16_t port) {
  Target target;
  target.tcp = true;
  target.host = "127.0.0.1";
  target.port = std::to_string(port);
  return target;
}

/// One closed-loop score round trip.
Result<ScoreResponse> RoundTrip(int fd, const ScoreRequest& req) {
  RETINA_RETURN_NOT_OK(WriteFrame(fd, EncodeScoreRequest(req)));
  std::string payload;
  bool eof = false;
  RETINA_RETURN_NOT_OK(ReadFrame(fd, &payload, &eof));
  if (eof) return Status::IOError("server closed mid-conversation");
  ScoreResponse resp;
  RETINA_RETURN_NOT_OK(DecodeScoreResponse(payload, &resp));
  return resp;
}

/// Growth of registry counter `name` since `before`. The serve.* counters
/// are process-wide, shared by every server in this binary, so exact-count
/// pins read the delta across one server's traffic.
uint64_t CounterSince(const obs::RegistrySnapshot& before,
                      const std::string& name) {
  const obs::RegistrySnapshot delta = obs::Registry::SnapshotDelta(
      before, obs::Registry::Global().TakeSnapshot());
  const auto it = delta.counters.find(name);
  return it == delta.counters.end() ? 0 : it->second;
}

int64_t GaugeNow(const std::string& name) {
  return obs::Registry::Global().GetGauge(name)->Get();
}

TEST(ServerTest, ConcurrentClientsGetByteIdenticalScores) {
  auto& f = SharedFixture();
  RequestHandlerOptions hopts;
  hopts.num_workers = 4;
  auto handler = RequestHandler::Borrow(f.model.get(), f.extractor.get(), hopts);
  ServerOptions sopts;
  sopts.socket_path = TestSocketPath("conc");
  Server server(handler.get(), sopts);
  const obs::RegistrySnapshot before = obs::Registry::Global().TakeSnapshot();
  ASSERT_TRUE(server.Start().ok());

  constexpr size_t kClients = 4;
  constexpr size_t kPerClient = 10;
  std::vector<std::vector<ScoreRequest>> plans(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    plans[c] = MakeRequests(f, kPerClient, 100 + c);
  }
  std::vector<std::string> failures(kClients);
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto fd = Connect(UnixTarget(sopts.socket_path));
      if (!fd.ok()) {
        failures[c] = fd.status().ToString();
        return;
      }
      for (const ScoreRequest& req : plans[c]) {
        auto resp = RoundTrip(fd.ValueOrDie(), req);
        if (!resp.ok()) {
          failures[c] = resp.status().ToString();
          break;
        }
        if (resp.ValueOrDie().code != ResponseCode::kOk ||
            resp.ValueOrDie().request_id != req.request_id) {
          failures[c] = "bad response for " + std::to_string(req.request_id);
          break;
        }
      }
      close(fd.ValueOrDie());
    });
  }
  for (std::thread& t : clients) t.join();
  for (size_t c = 0; c < kClients; ++c) {
    EXPECT_EQ(failures[c], "") << "client " << c;
  }

  // Byte-identity spot check on a fresh connection, against the direct
  // in-process engine.
  {
    auto fd = Connect(UnixTarget(sopts.socket_path));
    ASSERT_TRUE(fd.ok());
    for (const ScoreRequest& req : MakeRequests(f, 6, 999)) {
      auto resp = RoundTrip(fd.ValueOrDie(), req);
      ASSERT_TRUE(resp.ok()) << resp.status().ToString();
      ASSERT_EQ(resp.ValueOrDie().code, ResponseCode::kOk);
      ExpectBitIdentical(resp.ValueOrDie().scores, DirectScores(f, req),
                         "socket vs direct");
    }
    close(fd.ValueOrDie());
  }

  server.RequestShutdown();
  ASSERT_TRUE(server.Wait().ok());
  EXPECT_EQ(CounterSince(before, "serve.requests"), kClients * kPerClient + 6);
  EXPECT_EQ(CounterSince(before, "serve.responses"), kClients * kPerClient + 6);
  EXPECT_EQ(CounterSince(before, "serve.shed"), 0u);
  EXPECT_EQ(CounterSince(before, "serve.errors"), 0u);
  EXPECT_EQ(CounterSince(before, "serve.protocol_errors"), 0u);
}

/// One kMetrics round trip on an already-open connection.
Result<MetricsResponse> FetchMetrics(int fd) {
  MetricsRequest req;
  req.request_id = 2;
  RETINA_RETURN_NOT_OK(WriteFrame(fd, EncodeMetricsRequest(req)));
  std::string payload;
  bool eof = false;
  RETINA_RETURN_NOT_OK(ReadFrame(fd, &payload, &eof));
  if (eof) return Status::IOError("eof before metrics");
  MetricsResponse resp;
  RETINA_RETURN_NOT_OK(DecodeMetricsResponse(payload, &resp));
  return resp;
}

TEST(ServerTest, MetricsAnsweredInlineWithLiveCounters) {
  auto& f = SharedFixture();
  auto handler = RequestHandler::Borrow(f.model.get(), f.extractor.get(), {});
  ServerOptions sopts;
  sopts.socket_path = TestSocketPath("metrics");
  sopts.metrics_tick_requests = 2;  // rotate aggressively under test load
  Server server(handler.get(), sopts);
  ASSERT_TRUE(server.Start().ok());

  auto fd = Connect(UnixTarget(sopts.socket_path));
  ASSERT_TRUE(fd.ok());
  auto first = FetchMetrics(fd.ValueOrDie());
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  const obs::RegistrySnapshot before = first.ValueOrDie().snapshot;
  const auto requests = MakeRequests(f, 6, 321);
  for (const ScoreRequest& req : requests) {
    auto resp = RoundTrip(fd.ValueOrDie(), req);
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    ASSERT_EQ(resp.ValueOrDie().code, ResponseCode::kOk);
  }
  // The worker bumps serve.responses just after writing the frame, so a
  // metrics probe racing the last response can read one short; re-poll
  // until it settles (bounded).
  obs::RegistrySnapshot snap;
  obs::RegistrySnapshot delta;
  for (int attempt = 0; attempt < 200; ++attempt) {
    auto metrics = FetchMetrics(fd.ValueOrDie());
    ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
    snap = std::move(metrics.ValueOrDie().snapshot);
    delta = obs::Registry::SnapshotDelta(before, snap);
    if (delta.counters.at("serve.responses") >= requests.size()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Counters count in every build, so the reply is exact even with obs
  // disabled or compiled out.
  EXPECT_EQ(delta.counters.at("serve.requests"), requests.size());
  EXPECT_EQ(delta.counters.at("serve.responses"), requests.size());
  EXPECT_EQ(delta.counters.at("serve.shed"), 0u);
  EXPECT_EQ(snap.gauges.at("serve.workers"),
            static_cast<int64_t>(handler->num_workers()));
  // The handler's facts ride in the gauges section.
  EXPECT_EQ(snap.gauges.at("handler.num_tweets"),
            static_cast<int64_t>(f.world.tweets().size()));
  EXPECT_EQ(snap.gauges.count("handler.num_workers"), 0u);
  if (obs::kCompiledIn) {
    // The windowed view of the handle latency is live: the current
    // partial slot counts, so no cadence boundary needs to have passed.
    ASSERT_EQ(snap.windows.count("serve.handle_ns"), 1u);
    EXPECT_GT(snap.windows.at("serve.handle_ns").window.count, 0u);
    EXPECT_GT(snap.windows.at("serve.handle_ns").window.p50, 0u);
    // Cadence boundary crossed (6 requests / tick every 2): the ring
    // rotated at least once.
    EXPECT_GT(snap.windows.at("serve.handle_ns").ticks, 0u);
  }
  close(fd.ValueOrDie());
  server.RequestShutdown();
  ASSERT_TRUE(server.Wait().ok());
}

TEST(ServerTest, ClientTraceContextPropagatesIntoHandleSpans) {
  if (!obs::kCompiledIn) {
    GTEST_SKIP() << "tracing compiled out with obs";
  }
  auto& f = SharedFixture();
  auto handler = RequestHandler::Borrow(f.model.get(), f.extractor.get(), {});
  ServerOptions sopts;
  sopts.socket_path = TestSocketPath("traceprop");
  Server server(handler.get(), sopts);
  obs::StartTracing();
  ASSERT_TRUE(server.Start().ok());

  auto fd = Connect(UnixTarget(sopts.socket_path));
  ASSERT_TRUE(fd.ok());
  ScoreRequest req = MakeRequests(f, 1, 77)[0];
  req.trace_id = 43981;  // 0xABCD — a "client-minted" trace id
  req.span_id = 119;     // the client's send-span id
  auto resp = RoundTrip(fd.ValueOrDie(), req);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  ASSERT_EQ(resp.ValueOrDie().code, ResponseCode::kOk);
  close(fd.ValueOrDie());
  server.RequestShutdown();
  ASSERT_TRUE(server.Wait().ok());

  const std::string json = obs::TraceToChromeJson();
  obs::StopTracing();
  // The daemon's serve.handle span adopted the wire context: same trace
  // id, parented under the client's send span.
  EXPECT_NE(json.find("\"serve.handle\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"trace_id\":43981"), std::string::npos) << json;
  EXPECT_NE(json.find("\"parent_span_id\":119"), std::string::npos) << json;
}

/// Handler whose HandleScore blocks until released — makes queue overflow
/// deterministic regardless of scheduling.
class StallingHandler : public Handler {
 public:
  size_t num_workers() const override { return 1; }

  void HandleScore(size_t /*worker*/, const ScoreRequest& req,
                   ScoreResponse* resp) override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      ++entered_;
      entered_cv_.notify_all();
      release_cv_.wait(lock, [this] { return released_; });
    }
    resp->request_id = req.request_id;
    resp->code = ResponseCode::kOk;
    resp->scores = {static_cast<double>(req.request_id)};
  }

  void AppendStats(std::map<std::string, uint64_t>* stats) const override {
    std::lock_guard<std::mutex> lock(mu_);
    (*stats)["stall.entered"] = entered_;
  }

  void WaitUntilEntered(size_t n) {
    std::unique_lock<std::mutex> lock(mu_);
    entered_cv_.wait(lock, [&] { return entered_ >= n; });
  }

  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      released_ = true;
    }
    release_cv_.notify_all();
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable entered_cv_;
  std::condition_variable release_cv_;
  size_t entered_ = 0;
  bool released_ = false;
};

TEST(ServerTest, FullQueueShedsImmediatelyAndDrainAnswersAdmitted) {
  StallingHandler handler;
  ServerOptions sopts;
  sopts.socket_path = TestSocketPath("shed");
  sopts.queue_capacity = 1;
  Server server(&handler, sopts);
  const obs::RegistrySnapshot before = obs::Registry::Global().TakeSnapshot();
  ASSERT_TRUE(server.Start().ok());

  auto fd = Connect(UnixTarget(sopts.socket_path));
  ASSERT_TRUE(fd.ok());
  auto send_req = [&](uint64_t id) {
    ScoreRequest req;
    req.request_id = id;
    ASSERT_TRUE(WriteFrame(fd.ValueOrDie(), EncodeScoreRequest(req)).ok());
  };

  // Request 1 reaches the (stalled) worker; request 2 fills the queue.
  send_req(1);
  handler.WaitUntilEntered(1);
  send_req(2);
  for (int spin = 0; spin < 2000 && server.draining() == false; ++spin) {
    if (CounterSince(before, "serve.requests") >= 2) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(CounterSince(before, "serve.requests"), 2u);

  // With the worker wedged and the queue full, every further request must
  // shed with an immediate kShed reply — the reader answers, bounded-time.
  constexpr uint64_t kShedRequests = 5;
  for (uint64_t id = 3; id < 3 + kShedRequests; ++id) send_req(id);
  size_t shed_seen = 0;
  std::string payload;
  bool eof = false;
  while (shed_seen < kShedRequests) {
    ASSERT_TRUE(ReadFrame(fd.ValueOrDie(), &payload, &eof).ok());
    ASSERT_FALSE(eof);
    ScoreResponse resp;
    ASSERT_TRUE(DecodeScoreResponse(payload, &resp).ok());
    ASSERT_EQ(resp.code, ResponseCode::kShed) << resp.request_id;
    EXPECT_GE(resp.request_id, 3u);
    ++shed_seen;
  }

  // Drain while two requests are still admitted-but-unanswered: both must
  // be answered before Wait() returns — admitted work is never dropped.
  server.RequestShutdown();
  handler.Release();
  size_t ok_seen = 0;
  while (ok_seen < 2) {
    ASSERT_TRUE(ReadFrame(fd.ValueOrDie(), &payload, &eof).ok());
    if (eof) break;
    ScoreResponse resp;
    ASSERT_TRUE(DecodeScoreResponse(payload, &resp).ok());
    ASSERT_EQ(resp.code, ResponseCode::kOk);
    EXPECT_LE(resp.request_id, 2u);
    ++ok_seen;
  }
  EXPECT_EQ(ok_seen, 2u);
  ASSERT_TRUE(server.Wait().ok());
  close(fd.ValueOrDie());

  EXPECT_EQ(CounterSince(before, "serve.requests"), 2u);
  EXPECT_EQ(CounterSince(before, "serve.responses"), 2u);
  EXPECT_EQ(CounterSince(before, "serve.shed"), kShedRequests);
  // Capacity 1 and two admitted requests: the peak since Start is exactly 1.
  EXPECT_EQ(GaugeNow("serve.queue.depth_peak"), 1);
}

TEST(ServerTest, MetricsRequestAnsweredInlineWhileWorkersAreBusy) {
  StallingHandler handler;
  ServerOptions sopts;
  sopts.socket_path = TestSocketPath("stats");
  sopts.queue_capacity = 4;
  Server server(&handler, sopts);
  const obs::RegistrySnapshot before = obs::Registry::Global().TakeSnapshot();
  ASSERT_TRUE(server.Start().ok());

  auto fd = Connect(UnixTarget(sopts.socket_path));
  ASSERT_TRUE(fd.ok());
  ScoreRequest req;
  req.request_id = 1;
  ASSERT_TRUE(WriteFrame(fd.ValueOrDie(), EncodeScoreRequest(req)).ok());
  handler.WaitUntilEntered(1);

  // The worker is wedged, yet metrics must answer: they ride the reader
  // thread, not the admission queue.
  obs::RegistrySnapshot snap;
  const Status probe = QueryMetrics(UnixTarget(sopts.socket_path), 2, &snap);
  ASSERT_TRUE(probe.ok()) << probe.ToString();
  EXPECT_EQ(obs::Registry::SnapshotDelta(before, snap)
                .counters.at("serve.requests"),
            1u);
  EXPECT_EQ(snap.gauges.at("serve.workers"), 1);
  EXPECT_EQ(snap.gauges.at("serve.queue.capacity"), 4);
  EXPECT_EQ(snap.gauges.at("stall.entered"), 1);  // handler fact merged

  handler.Release();
  server.RequestShutdown();
  ASSERT_TRUE(server.Wait().ok());
  close(fd.ValueOrDie());
}

TEST(ServerTest, ProtocolGarbageClosesConnectionNotServer) {
  auto& f = SharedFixture();
  auto handler = RequestHandler::Borrow(f.model.get(), f.extractor.get(), {});
  ServerOptions sopts;
  sopts.socket_path = TestSocketPath("garb");
  Server server(handler.get(), sopts);
  const obs::RegistrySnapshot before = obs::Registry::Global().TakeSnapshot();
  ASSERT_TRUE(server.Start().ok());

  {
    // A frame whose payload is garbage: the server must close this
    // connection (observed as EOF) without taking the daemon down.
    auto fd = Connect(UnixTarget(sopts.socket_path));
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(WriteFrame(fd.ValueOrDie(), "not a retina frame").ok());
    std::string payload;
    bool eof = false;
    const Status st = ReadFrame(fd.ValueOrDie(), &payload, &eof);
    EXPECT_TRUE(!st.ok() || eof);
    close(fd.ValueOrDie());
  }

  // The server still serves real traffic afterwards.
  auto fd = Connect(UnixTarget(sopts.socket_path));
  ASSERT_TRUE(fd.ok());
  const auto reqs = MakeRequests(f, 1, 7);
  auto resp = RoundTrip(fd.ValueOrDie(), reqs[0]);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp.ValueOrDie().code, ResponseCode::kOk);
  close(fd.ValueOrDie());

  server.RequestShutdown();
  ASSERT_TRUE(server.Wait().ok());
  EXPECT_GE(CounterSince(before, "serve.protocol_errors"), 1u);
}

TEST(ServerTest, SigtermDrainsGracefully) {
  auto& f = SharedFixture();
  auto handler = RequestHandler::Borrow(f.model.get(), f.extractor.get(), {});
  ServerOptions sopts;
  sopts.socket_path = TestSocketPath("term");
  sopts.install_signal_handler = true;
  Server server(handler.get(), sopts);
  const obs::RegistrySnapshot before = obs::Registry::Global().TakeSnapshot();
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(GaugeNow("serve.draining"), 0);

  auto fd = Connect(UnixTarget(sopts.socket_path));
  ASSERT_TRUE(fd.ok());
  const auto reqs = MakeRequests(f, 3, 13);
  for (const ScoreRequest& req : reqs) {
    auto resp = RoundTrip(fd.ValueOrDie(), req);
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  }

  raise(SIGTERM);  // the installed handler must promote this into a drain
  ASSERT_TRUE(server.Wait().ok());
  close(fd.ValueOrDie());

  EXPECT_EQ(CounterSince(before, "serve.requests"), reqs.size());
  EXPECT_EQ(CounterSince(before, "serve.responses"), reqs.size());
  EXPECT_EQ(GaugeNow("serve.draining"), 1);
  // The socket file is unlinked on drain; new connections must fail.
  EXPECT_FALSE(Connect(UnixTarget(sopts.socket_path)).ok());
}

/// Handler that records every HandleScoreBatch call's size and blocks
/// until released — makes the dispatcher's coalescing deterministic (a
/// wedged first call lets a known set of requests pile up in the queue)
/// and emits exact bit patterns (NaN payloads, denormals, negative zero)
/// so the fan-out's byte-identity is pinned end to end.
class StallingBatchHandler : public Handler {
 public:
  /// Deterministic per-request score slots, deliberately nasty: the
  /// fan-out must hand every connection its own request's exact bits.
  static Vec ExpectedScores(uint64_t request_id) {
    Vec scores = {static_cast<double>(request_id), std::nan("0x5"), 5e-324,
                  -0.0};
    // Salt the NaN payload per request so cross-request mixups can't
    // accidentally pass the memcmp.
    uint64_t bits;
    std::memcpy(&bits, &scores[1], sizeof(bits));
    bits ^= request_id << 1;
    std::memcpy(&scores[1], &bits, sizeof(bits));
    return scores;
  }

  size_t num_workers() const override { return 1; }

  void HandleScore(size_t worker, const ScoreRequest& req,
                   ScoreResponse* resp) override {
    const std::vector<const ScoreRequest*> one = {&req};
    std::vector<ScoreResponse> resps;
    HandleScoreBatch(worker, one, &resps);
    *resp = std::move(resps[0]);
  }

  void HandleScoreBatch(size_t /*worker*/,
                        const std::vector<const ScoreRequest*>& reqs,
                        std::vector<ScoreResponse>* resps) override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      batch_sizes_.push_back(reqs.size());
      entered_cv_.notify_all();
      release_cv_.wait(lock, [this] { return released_; });
    }
    resps->resize(reqs.size());
    for (size_t i = 0; i < reqs.size(); ++i) {
      (*resps)[i].request_id = reqs[i]->request_id;
      (*resps)[i].code = ResponseCode::kOk;
      (*resps)[i].scores = ExpectedScores(reqs[i]->request_id);
    }
  }

  void AppendStats(std::map<std::string, uint64_t>* /*stats*/) const override {
  }

  void WaitUntilCalls(size_t n) {
    std::unique_lock<std::mutex> lock(mu_);
    entered_cv_.wait(lock, [&] { return batch_sizes_.size() >= n; });
  }

  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      released_ = true;
    }
    release_cv_.notify_all();
  }

  std::vector<size_t> batch_sizes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return batch_sizes_;
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable entered_cv_;
  std::condition_variable release_cv_;
  std::vector<size_t> batch_sizes_;
  bool released_ = false;
};

TEST(ServerTest, SameTweetRequestsCoalesceAndFanOutExactBitPatterns) {
  StallingBatchHandler handler;
  ServerOptions sopts;
  sopts.socket_path = TestSocketPath("coal");
  sopts.queue_capacity = 16;
  sopts.coalesce_max_batch = 8;
  Server server(&handler, sopts);
  const obs::RegistrySnapshot before = obs::Registry::Global().TakeSnapshot();
  ASSERT_TRUE(server.Start().ok());

  auto fd_a = Connect(UnixTarget(sopts.socket_path));
  auto fd_b = Connect(UnixTarget(sopts.socket_path));
  ASSERT_TRUE(fd_a.ok());
  ASSERT_TRUE(fd_b.ok());
  auto send_req = [](int fd, uint64_t id) {
    ScoreRequest req;
    req.request_id = id;
    req.tweet_id = 5;  // every request targets the same hot tweet
    req.users = {1, 2};
    ASSERT_TRUE(WriteFrame(fd, EncodeScoreRequest(req)).ok());
  };

  // Request 1 wedges the single worker inside a (singleton) batch call.
  send_req(fd_a.ValueOrDie(), 1);
  handler.WaitUntilCalls(1);
  // Five more same-tweet requests, split across two connections, pile up
  // in the admission queue while the worker is wedged.
  send_req(fd_a.ValueOrDie(), 2);
  send_req(fd_b.ValueOrDie(), 3);
  send_req(fd_a.ValueOrDie(), 4);
  send_req(fd_b.ValueOrDie(), 5);
  send_req(fd_a.ValueOrDie(), 6);
  for (int spin = 0; spin < 5000; ++spin) {
    if (CounterSince(before, "serve.requests") >= 6) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  handler.Release();
  // Fan-out routing: each connection gets exactly its own requests'
  // responses, carrying that request's exact score bit patterns.
  auto read_all = [&](int fd, const std::vector<uint64_t>& want_ids) {
    std::map<uint64_t, ScoreResponse> got;
    for (size_t i = 0; i < want_ids.size(); ++i) {
      std::string payload;
      bool eof = false;
      ASSERT_TRUE(ReadFrame(fd, &payload, &eof).ok());
      ASSERT_FALSE(eof);
      ScoreResponse resp;
      ASSERT_TRUE(DecodeScoreResponse(payload, &resp).ok());
      ASSERT_EQ(resp.code, ResponseCode::kOk) << resp.message;
      got[resp.request_id] = std::move(resp);
    }
    for (const uint64_t id : want_ids) {
      ASSERT_EQ(got.count(id), 1u) << "missing response " << id;
      ExpectBitIdentical(got[id].scores,
                         StallingBatchHandler::ExpectedScores(id),
                         "fanned-out response " + std::to_string(id));
    }
  };
  read_all(fd_a.ValueOrDie(), {1, 2, 4, 6});
  read_all(fd_b.ValueOrDie(), {3, 5});
  close(fd_a.ValueOrDie());
  close(fd_b.ValueOrDie());

  server.RequestShutdown();
  ASSERT_TRUE(server.Wait().ok());

  // Deterministic coalescing shape: the wedged singleton, then ONE fused
  // call covering all five queued same-tweet requests.
  const std::vector<size_t> sizes = handler.batch_sizes();
  ASSERT_EQ(sizes.size(), 2u) << "expected exactly two dispatches";
  EXPECT_EQ(sizes[0], 1u);
  EXPECT_EQ(sizes[1], 5u);

  EXPECT_EQ(CounterSince(before, "serve.requests"), 6u);
  EXPECT_EQ(CounterSince(before, "serve.responses"), 6u);
  EXPECT_EQ(CounterSince(before, "serve.coalesce.batches"), 1u);
  EXPECT_EQ(CounterSince(before, "serve.coalesce.batched_requests"), 5u);
  EXPECT_EQ(GaugeNow("serve.coalesce.max_batch"), 8);
}

TEST(ServerTest, CoalescingDisabledDispatchesEveryRequestAlone) {
  StallingBatchHandler handler;
  ServerOptions sopts;
  sopts.socket_path = TestSocketPath("nocoal");
  sopts.queue_capacity = 16;
  sopts.coalesce_max_batch = 1;  // the pre-coalescing behavior
  Server server(&handler, sopts);
  const obs::RegistrySnapshot before = obs::Registry::Global().TakeSnapshot();
  ASSERT_TRUE(server.Start().ok());

  auto fd = Connect(UnixTarget(sopts.socket_path));
  ASSERT_TRUE(fd.ok());
  for (uint64_t id = 1; id <= 4; ++id) {
    ScoreRequest req;
    req.request_id = id;
    req.tweet_id = 5;
    req.users = {1};
    ASSERT_TRUE(WriteFrame(fd.ValueOrDie(), EncodeScoreRequest(req)).ok());
  }
  handler.WaitUntilCalls(1);
  for (int spin = 0; spin < 5000; ++spin) {
    if (CounterSince(before, "serve.requests") >= 4) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  handler.Release();
  for (size_t i = 0; i < 4; ++i) {
    std::string payload;
    bool eof = false;
    ASSERT_TRUE(ReadFrame(fd.ValueOrDie(), &payload, &eof).ok());
    ASSERT_FALSE(eof);
  }
  close(fd.ValueOrDie());
  server.RequestShutdown();
  ASSERT_TRUE(server.Wait().ok());

  for (const size_t size : handler.batch_sizes()) {
    EXPECT_EQ(size, 1u) << "max_batch=1 must never fuse";
  }
  EXPECT_EQ(CounterSince(before, "serve.coalesce.batches"), 0u);
  EXPECT_EQ(CounterSince(before, "serve.coalesce.batched_requests"), 0u);
}

// ---------------------------------------------------------- TCP listener --

TEST(ServerTest, TcpListenerServesByteIdenticalScores) {
  auto& f = SharedFixture();
  auto handler = RequestHandler::Borrow(f.model.get(), f.extractor.get(), {});
  ServerOptions sopts;
  sopts.listen_address = "127.0.0.1:0";  // kernel-assigned port, no Unix
  Server server(handler.get(), sopts);
  const obs::RegistrySnapshot before = obs::Registry::Global().TakeSnapshot();
  ASSERT_TRUE(server.Start().ok());
  ASSERT_NE(server.tcp_port(), 0) << "port 0 must resolve to a bound port";
  const Target tcp = TcpTarget(server.tcp_port());

  auto fd = Connect(tcp);
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  const auto reqs = MakeRequests(f, 6, 311);
  for (size_t i = 0; i < reqs.size(); ++i) {
    auto resp = RoundTrip(fd.ValueOrDie(), reqs[i]);
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    ASSERT_EQ(resp.ValueOrDie().code, ResponseCode::kOk)
        << resp.ValueOrDie().message;
    ExpectBitIdentical(resp.ValueOrDie().scores, DirectScores(f, reqs[i]),
                       "tcp vs direct req " + std::to_string(i));
  }
  close(fd.ValueOrDie());

  server.RequestShutdown();
  ASSERT_TRUE(server.Wait().ok());
  EXPECT_EQ(CounterSince(before, "serve.requests"), reqs.size());
  EXPECT_EQ(CounterSince(before, "serve.responses"), reqs.size());
  // The drain closed the TCP listener: new connections must fail.
  EXPECT_FALSE(Connect(tcp).ok());
}

TEST(ServerTest, BothTransportsServeTheSameBytesSimultaneously) {
  auto& f = SharedFixture();
  auto handler = RequestHandler::Borrow(f.model.get(), f.extractor.get(), {});
  ServerOptions sopts;
  sopts.socket_path = TestSocketPath("dual");
  sopts.listen_address = "127.0.0.1:0";
  Server server(handler.get(), sopts);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_NE(server.tcp_port(), 0);

  auto unix_fd = Connect(UnixTarget(sopts.socket_path));
  auto tcp_fd = Connect(TcpTarget(server.tcp_port()));
  ASSERT_TRUE(unix_fd.ok());
  ASSERT_TRUE(tcp_fd.ok());
  for (const ScoreRequest& req : MakeRequests(f, 4, 733)) {
    auto via_unix = RoundTrip(unix_fd.ValueOrDie(), req);
    auto via_tcp = RoundTrip(tcp_fd.ValueOrDie(), req);
    ASSERT_TRUE(via_unix.ok());
    ASSERT_TRUE(via_tcp.ok());
    ASSERT_EQ(via_unix.ValueOrDie().code, ResponseCode::kOk);
    ASSERT_EQ(via_tcp.ValueOrDie().code, ResponseCode::kOk);
    // Same frame protocol, same admission path, same bytes out.
    ExpectBitIdentical(via_tcp.ValueOrDie().scores,
                       via_unix.ValueOrDie().scores, "tcp vs unix");
    ExpectBitIdentical(via_unix.ValueOrDie().scores, DirectScores(f, req),
                       "unix vs direct");
  }
  close(unix_fd.ValueOrDie());
  close(tcp_fd.ValueOrDie());
  server.RequestShutdown();
  ASSERT_TRUE(server.Wait().ok());
}

// ----------------------------------------------------- Stale socket files --

TEST(ServerTest, StaleSocketFileFromKilledRunIsReclaimed) {
  // A SIGKILL'd daemon leaves its socket inode behind. Start() must
  // connect-probe it, find nobody home, unlink, and bind fresh.
  const std::string path = TestSocketPath("stale");
  {
    const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    struct sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    ASSERT_LT(path.size(), sizeof(addr.sun_path));
    std::memcpy(addr.sun_path, path.c_str(), path.size());
    unlink(path.c_str());
    ASSERT_EQ(
        bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)), 0);
    close(fd);  // no unlink: the inode stays, with no listener behind it
  }
  ASSERT_EQ(access(path.c_str(), F_OK), 0);
  ASSERT_FALSE(Connect(UnixTarget(path)).ok());  // it really is dead

  auto& f = SharedFixture();
  auto handler = RequestHandler::Borrow(f.model.get(), f.extractor.get(), {});
  ServerOptions sopts;
  sopts.socket_path = path;
  Server server(handler.get(), sopts);
  ASSERT_TRUE(server.Start().ok()) << "stale socket file must be reclaimed";

  auto fd = Connect(UnixTarget(path));
  ASSERT_TRUE(fd.ok());
  const auto reqs = MakeRequests(f, 1, 17);
  auto resp = RoundTrip(fd.ValueOrDie(), reqs[0]);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp.ValueOrDie().code, ResponseCode::kOk);
  close(fd.ValueOrDie());
  server.RequestShutdown();
  ASSERT_TRUE(server.Wait().ok());
}

TEST(ServerTest, LiveServersSocketIsNeverStolen) {
  auto& f = SharedFixture();
  auto handler = RequestHandler::Borrow(f.model.get(), f.extractor.get(), {});
  ServerOptions sopts;
  sopts.socket_path = TestSocketPath("live");
  Server first(handler.get(), sopts);
  ASSERT_TRUE(first.Start().ok());

  // The connect probe reaches the live daemon, so the second Start()
  // must refuse rather than unlink a socket that is still answering.
  Server second(handler.get(), sopts);
  const Status st = second.Start();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("refusing"), std::string::npos)
      << st.ToString();

  // And the refusal must not have disturbed the live server.
  auto fd = Connect(UnixTarget(sopts.socket_path));
  ASSERT_TRUE(fd.ok());
  const auto reqs = MakeRequests(f, 1, 23);
  auto resp = RoundTrip(fd.ValueOrDie(), reqs[0]);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp.ValueOrDie().code, ResponseCode::kOk);
  close(fd.ValueOrDie());
  first.RequestShutdown();
  ASSERT_TRUE(first.Wait().ok());
}

TEST(ServerTest, TracingTheServePathDoesNotPerturbScores) {
  // Determinism contract: observers never change behavior. The same
  // request stream, served once with tracing active and once without,
  // must produce byte-identical scores.
  auto& f = SharedFixture();
  const auto reqs = MakeRequests(f, 5, 29);

  auto run = [&](bool traced) {
    if (traced) obs::StartTracing();
    auto handler = RequestHandler::Borrow(f.model.get(), f.extractor.get(), {});
    ServerOptions sopts;
    sopts.socket_path = TestSocketPath(traced ? "tron" : "troff");
    Server server(handler.get(), sopts);
    EXPECT_TRUE(server.Start().ok());
    std::vector<Vec> all;
    auto fd = Connect(UnixTarget(sopts.socket_path));
    EXPECT_TRUE(fd.ok());
    for (const ScoreRequest& req : reqs) {
      auto resp = RoundTrip(fd.ValueOrDie(), req);
      EXPECT_TRUE(resp.ok());
      all.push_back(resp.ValueOrDie().scores);
    }
    close(fd.ValueOrDie());
    server.RequestShutdown();
    EXPECT_TRUE(server.Wait().ok());
    if (traced) {
      if (obs::kCompiledIn) {
        EXPECT_GT(obs::TraceBufferedEvents(), 0u);  // spans recorded
      }
      obs::StopTracing();
    }
    return all;
  };

  const auto plain = run(false);
  const auto traced = run(true);
  ASSERT_EQ(plain.size(), traced.size());
  for (size_t i = 0; i < plain.size(); ++i) {
    ExpectBitIdentical(traced[i], plain[i],
                       "traced vs plain req " + std::to_string(i));
  }
}

}  // namespace
}  // namespace retina::serve
