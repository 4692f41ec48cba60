#include "serve/protocol.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/bytes.h"

namespace retina::serve {

namespace {

void PutHeader(std::string* out, MessageType type) {
  PutU32(out, kProtocolMagic);
  PutU16(out, kProtocolVersion);
  PutU8(out, static_cast<uint8_t>(type));
  PutU8(out, 0);  // reserved
}

Status Corrupt(const std::string& what) {
  return Status::IOError("corrupt serve frame: " + what);
}

/// The one header check: magic, version, reserved byte, and a known
/// message type.
Result<MessageType> ReadHeader(ByteReader* cur) {
  uint32_t magic = 0;
  uint16_t version = 0;
  uint8_t type = 0, reserved = 0;
  if (!cur->ReadU32(&magic) || !cur->ReadU16(&version) ||
      !cur->ReadU8(&type) || !cur->ReadU8(&reserved)) {
    return Corrupt("truncated header");
  }
  if (magic != kProtocolMagic) return Corrupt("bad magic");
  if (version != kProtocolVersion) {
    return Corrupt("unsupported version " + std::to_string(version));
  }
  if (reserved != 0) return Corrupt("nonzero reserved byte");
  switch (static_cast<MessageType>(type)) {
    case MessageType::kScoreRequest:
    case MessageType::kScoreResponse:
    case MessageType::kMetricsRequest:
    case MessageType::kMetricsResponse:
      return static_cast<MessageType>(type);
  }
  return Corrupt("unknown message type " + std::to_string(type));
}

/// Validates the fixed header and that the type matches `want`.
Status ConsumeHeader(ByteReader* cur, MessageType want) {
  const Result<MessageType> type = ReadHeader(cur);
  RETINA_RETURN_NOT_OK(type.status());
  if (type.ValueOrDie() != want) {
    return Corrupt("unexpected message type " +
                   std::to_string(static_cast<int>(type.ValueOrDie())));
  }
  return Status::OK();
}

Status ExpectEnd(const ByteReader& cur) {
  if (!cur.AtEnd()) {
    return Corrupt(std::to_string(cur.remaining()) + " trailing bytes");
  }
  return Status::OK();
}

}  // namespace

Result<MessageType> PeekMessageType(std::string_view payload) {
  ByteReader cur(payload);
  return ReadHeader(&cur);
}

std::string EncodeScoreRequest(const ScoreRequest& req) {
  std::string out;
  out.reserve(kPayloadHeaderBytes + 36 + 4 * req.users.size());
  PutHeader(&out, MessageType::kScoreRequest);
  PutU64(&out, req.request_id);
  PutU64(&out, req.tweet_id);
  PutU32(&out, static_cast<uint32_t>(req.users.size()));
  for (uint32_t u : req.users) PutU32(&out, u);
  PutU64(&out, req.trace_id);
  PutU64(&out, req.span_id);
  return out;
}

std::string EncodeScoreResponse(const ScoreResponse& resp) {
  std::string out;
  out.reserve(kPayloadHeaderBytes + 13 +
              (resp.code == ResponseCode::kOk ? 8 * resp.scores.size()
                                              : resp.message.size()));
  PutHeader(&out, MessageType::kScoreResponse);
  PutU64(&out, resp.request_id);
  PutU8(&out, static_cast<uint8_t>(resp.code));
  if (resp.code == ResponseCode::kOk) {
    PutU32(&out, static_cast<uint32_t>(resp.scores.size()));
    for (double s : resp.scores) PutF64(&out, s);
  } else {
    PutU32(&out, static_cast<uint32_t>(resp.message.size()));
    out.append(resp.message);
  }
  return out;
}

Status DecodeScoreRequest(std::string_view payload, ScoreRequest* out) {
  ByteReader cur(payload);
  RETINA_RETURN_NOT_OK(ConsumeHeader(&cur, MessageType::kScoreRequest));
  uint32_t n = 0;
  if (!cur.ReadU64(&out->request_id) || !cur.ReadU64(&out->tweet_id) ||
      !cur.ReadU32(&n)) {
    return Corrupt("truncated score request");
  }
  // The user list is followed by the 16-byte trace tail. 64-bit sum: a
  // count near 2^30 must not wrap into agreeing with a short body.
  if (cur.remaining() != uint64_t{4} * n + 16) {
    return Corrupt("score request user count disagrees with body size");
  }
  out->users.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    if (!cur.ReadU32(&out->users[i])) return Corrupt("truncated user list");
  }
  if (!cur.ReadU64(&out->trace_id) || !cur.ReadU64(&out->span_id)) {
    return Corrupt("truncated score request trace context");
  }
  return ExpectEnd(cur);
}

Status DecodeScoreResponse(std::string_view payload, ScoreResponse* out) {
  ByteReader cur(payload);
  RETINA_RETURN_NOT_OK(ConsumeHeader(&cur, MessageType::kScoreResponse));
  uint8_t code = 0;
  if (!cur.ReadU64(&out->request_id) || !cur.ReadU8(&code)) {
    return Corrupt("truncated score response");
  }
  if (code > static_cast<uint8_t>(ResponseCode::kError)) {
    return Corrupt("unknown response code " + std::to_string(code));
  }
  out->code = static_cast<ResponseCode>(code);
  out->scores.clear();
  out->message.clear();
  uint32_t n = 0;
  if (!cur.ReadU32(&n)) return Corrupt("truncated score response");
  if (out->code == ResponseCode::kOk) {
    if (cur.remaining() != uint64_t{8} * n) {
      return Corrupt("score count disagrees with body size");
    }
    out->scores.resize(n);
    for (uint32_t i = 0; i < n; ++i) {
      if (!cur.ReadF64(&out->scores[i])) return Corrupt("truncated score list");
    }
  } else {
    if (!cur.ReadBytes(n, &out->message)) {
      return Corrupt("truncated response message");
    }
  }
  return ExpectEnd(cur);
}

std::string EncodeMetricsRequest(const MetricsRequest& req) {
  std::string out;
  PutHeader(&out, MessageType::kMetricsRequest);
  PutU64(&out, req.request_id);
  return out;
}

std::string EncodeMetricsResponse(const MetricsResponse& resp) {
  std::string out;
  PutHeader(&out, MessageType::kMetricsResponse);
  PutU64(&out, resp.request_id);
  const obs::RegistrySnapshot& snap = resp.snapshot;
  PutU32(&out, static_cast<uint32_t>(snap.counters.size()));
  for (const auto& [key, value] : snap.counters) {  // std::map: sorted keys
    PutU32(&out, static_cast<uint32_t>(key.size()));
    out.append(key);
    PutU64(&out, value);
  }
  PutU32(&out, static_cast<uint32_t>(snap.gauges.size()));
  for (const auto& [key, value] : snap.gauges) {
    PutU32(&out, static_cast<uint32_t>(key.size()));
    out.append(key);
    PutU64(&out, static_cast<uint64_t>(value));  // two's complement
  }
  PutU32(&out, static_cast<uint32_t>(snap.histograms.size()));
  for (const auto& [key, h] : snap.histograms) {
    PutU32(&out, static_cast<uint32_t>(key.size()));
    out.append(key);
    PutU64(&out, h.count);
    PutU64(&out, h.sum);
    PutU64(&out, h.p50);
    PutU64(&out, h.p95);
    PutU64(&out, h.p99);
  }
  PutU32(&out, static_cast<uint32_t>(snap.windows.size()));
  for (const auto& [key, w] : snap.windows) {
    PutU32(&out, static_cast<uint32_t>(key.size()));
    out.append(key);
    PutU64(&out, w.ticks);
    PutU64(&out, w.slots);
    PutU64(&out, w.window.count);
    PutU64(&out, w.window.sum);
    PutU64(&out, w.window.p50);
    PutU64(&out, w.window.p95);
    PutU64(&out, w.window.p99);
  }
  return out;
}

Status DecodeMetricsRequest(std::string_view payload, MetricsRequest* out) {
  ByteReader cur(payload);
  RETINA_RETURN_NOT_OK(ConsumeHeader(&cur, MessageType::kMetricsRequest));
  if (!cur.ReadU64(&out->request_id)) {
    return Corrupt("truncated metrics request");
  }
  return ExpectEnd(cur);
}

Status DecodeMetricsResponse(std::string_view payload, MetricsResponse* out) {
  ByteReader cur(payload);
  RETINA_RETURN_NOT_OK(ConsumeHeader(&cur, MessageType::kMetricsResponse));
  if (!cur.ReadU64(&out->request_id)) {
    return Corrupt("truncated metrics response");
  }
  obs::RegistrySnapshot& snap = out->snapshot;
  snap = obs::RegistrySnapshot();

  uint32_t n = 0;
  if (!cur.ReadU32(&n)) return Corrupt("truncated metrics counters");
  for (uint32_t i = 0; i < n; ++i) {
    uint32_t key_len = 0;
    std::string key;
    uint64_t value = 0;
    if (!cur.ReadU32(&key_len) || !cur.ReadBytes(key_len, &key) ||
        !cur.ReadU64(&value)) {
      return Corrupt("truncated metrics counter entry");
    }
    if (!snap.counters.emplace(std::move(key), value).second) {
      return Corrupt("duplicate metrics counter key");
    }
  }

  if (!cur.ReadU32(&n)) return Corrupt("truncated metrics gauges");
  for (uint32_t i = 0; i < n; ++i) {
    uint32_t key_len = 0;
    std::string key;
    uint64_t bits = 0;
    if (!cur.ReadU32(&key_len) || !cur.ReadBytes(key_len, &key) ||
        !cur.ReadU64(&bits)) {
      return Corrupt("truncated metrics gauge entry");
    }
    if (!snap.gauges.emplace(std::move(key), static_cast<int64_t>(bits))
             .second) {
      return Corrupt("duplicate metrics gauge key");
    }
  }

  if (!cur.ReadU32(&n)) return Corrupt("truncated metrics histograms");
  for (uint32_t i = 0; i < n; ++i) {
    uint32_t key_len = 0;
    std::string key;
    obs::HistogramSnapshot h;
    if (!cur.ReadU32(&key_len) || !cur.ReadBytes(key_len, &key) ||
        !cur.ReadU64(&h.count) || !cur.ReadU64(&h.sum) ||
        !cur.ReadU64(&h.p50) || !cur.ReadU64(&h.p95) || !cur.ReadU64(&h.p99)) {
      return Corrupt("truncated metrics histogram entry");
    }
    if (!snap.histograms.emplace(std::move(key), h).second) {
      return Corrupt("duplicate metrics histogram key");
    }
  }

  if (!cur.ReadU32(&n)) return Corrupt("truncated metrics windows");
  for (uint32_t i = 0; i < n; ++i) {
    uint32_t key_len = 0;
    std::string key;
    obs::WindowSnapshot w;
    if (!cur.ReadU32(&key_len) || !cur.ReadBytes(key_len, &key) ||
        !cur.ReadU64(&w.ticks) || !cur.ReadU64(&w.slots) ||
        !cur.ReadU64(&w.window.count) || !cur.ReadU64(&w.window.sum) ||
        !cur.ReadU64(&w.window.p50) || !cur.ReadU64(&w.window.p95) ||
        !cur.ReadU64(&w.window.p99)) {
      return Corrupt("truncated metrics window entry");
    }
    if (!snap.windows.emplace(std::move(key), w).second) {
      return Corrupt("duplicate metrics window key");
    }
  }
  return ExpectEnd(cur);
}

Status WriteFrame(int fd, std::string_view payload) {
  if (payload.empty() || payload.size() > kMaxFramePayloadBytes) {
    return Status::InvalidArgument("frame payload size out of range: " +
                                   std::to_string(payload.size()));
  }
  std::string frame;
  frame.reserve(4 + payload.size());
  PutU32(&frame, static_cast<uint32_t>(payload.size()));
  frame.append(payload);
  size_t sent = 0;
  while (sent < frame.size()) {
    const ssize_t n = ::send(fd, frame.data() + sent, frame.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("send failed: ") +
                             std::strerror(errno));
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

namespace {

/// Reads exactly `n` bytes. `*got` reports the byte count actually read
/// when the peer closed early (so callers can tell a clean EOF from a
/// mid-frame one).
Status ReadExact(int fd, char* buf, size_t n, size_t* got) {
  *got = 0;
  while (*got < n) {
    const ssize_t r = ::recv(fd, buf + *got, n - *got, 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("recv failed: ") +
                             std::strerror(errno));
    }
    if (r == 0) return Status::OK();  // EOF; caller inspects *got
    *got += static_cast<size_t>(r);
  }
  return Status::OK();
}

}  // namespace

Status ReadFrame(int fd, std::string* payload, bool* eof) {
  payload->clear();
  *eof = false;
  char len_buf[4];
  size_t got = 0;
  RETINA_RETURN_NOT_OK(ReadExact(fd, len_buf, sizeof(len_buf), &got));
  if (got == 0) {
    *eof = true;  // clean close at a frame boundary
    return Status::OK();
  }
  if (got < sizeof(len_buf)) return Corrupt("EOF inside frame length");
  const uint32_t len = LoadLe32(len_buf);
  if (len == 0 || len > kMaxFramePayloadBytes) {
    return Corrupt("frame length " + std::to_string(len) + " out of range");
  }
  payload->resize(len);
  RETINA_RETURN_NOT_OK(ReadExact(fd, payload->data(), len, &got));
  if (got < len) return Corrupt("EOF inside frame payload");
  return Status::OK();
}

}  // namespace retina::serve
