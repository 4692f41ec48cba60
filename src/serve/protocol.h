// retina::serve wire protocol — length-prefixed binary frames over a
// stream socket, one protocol version.
//
// Framing: every message travels as
//
//   u32  payload_len   (little-endian, 0 < len <= kMaxFramePayloadBytes)
//   u8[payload_len]    payload
//
// and every payload begins with a fixed header
//
//   u32  magic         kProtocolMagic ("RETP" on the wire)
//   u16  version       kProtocolVersion (the only version decoders accept)
//   u8   type          MessageType
//   u8   reserved      must be zero
//
// followed by the body of the given type (all integers little-endian):
//
//   kScoreRequest:   u64 request_id | u64 tweet_id | u32 n | n x u32 user |
//                      u64 trace_id | u64 span_id     (zero = no trace)
//   kScoreResponse:  u64 request_id | u8 code |
//                      code==kOk:  u32 n | n x u64 score-bit-pattern
//                      otherwise:  u32 msg_len | msg bytes
//   kMetricsRequest: u64 request_id
//   kMetricsResponse:u64 request_id |
//                      u32 n | n x (u32 key_len | key | u64 value)
//                        counters
//                      u32 n | n x (u32 key_len | key | u64 i64-bits)
//                        gauges (two's-complement int64 in a u64)
//                      u32 n | n x (u32 key_len | key |
//                        u64 count | u64 sum | u64 p50 | u64 p95 | u64 p99)
//                        cumulative histograms
//                      u32 n | n x (u32 key_len | key | u64 ticks |
//                        u64 slots | u64 count | u64 sum | u64 p50 |
//                        u64 p95 | u64 p99)
//                        windowed histograms
//                      keys unique and sorted within each section
//
// Every client lives in this repository, so there is one version: v2, the
// first with the trace tail and the kMetrics pair. Type numbers 3 and 4
// (v1's retired stats pair) stay unassigned and decode as unknown.
//
// Scores cross the wire as IEEE-754 f64 bit patterns in a u64, so a
// client reassembles exactly the doubles the engine produced — the serve
// e2e pins byte-identity against a direct in-process ScoringEngine call.
//
// Corruption discipline matches io::Checkpoint, and so does the codec:
// both encode with common/bytes.h's Put* appenders and decode through its
// ByteReader. Every malformed input — bad magic, unknown version or type,
// nonzero reserved byte, oversized or zero frame length, truncated body,
// a count that disagrees with the body (checked in 64 bits, so no count
// wraps into agreement), trailing bytes — decodes to a Status error
// before any list is sized, never to UB or a silently wrong message.
// Encoders are infallible; only decoding and socket I/O can fail.

#ifndef RETINA_SERVE_PROTOCOL_H_
#define RETINA_SERVE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/obs.h"
#include "common/status.h"
#include "common/vec.h"

namespace retina::serve {

inline constexpr uint32_t kProtocolMagic = 0x50544552;  // "RETP" in LE bytes
inline constexpr uint16_t kProtocolVersion = 2;
/// Upper bound on a frame payload; a length prefix above this is treated
/// as stream corruption rather than an allocation request.
inline constexpr uint32_t kMaxFramePayloadBytes = 16u << 20;
/// Bytes of the fixed payload header (magic, version, type, reserved).
inline constexpr size_t kPayloadHeaderBytes = 8;

enum class MessageType : uint8_t {
  kScoreRequest = 1,
  kScoreResponse = 2,
  kMetricsRequest = 5,
  kMetricsResponse = 6,
};

enum class ResponseCode : uint8_t {
  kOk = 0,     ///< scores present
  kShed = 1,   ///< admission queue full; retry later
  kError = 2,  ///< request invalid (message tells why)
};

/// Score `users` as retweet candidates of `tweet_id`. `request_id` is an
/// opaque client token echoed in the response. `trace_id`/`span_id` carry
/// the client's trace context so daemon spans parent under the client's
/// trace; zero means absent (tracing off).
struct ScoreRequest {
  uint64_t request_id = 0;
  uint64_t tweet_id = 0;
  std::vector<uint32_t> users;
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
};

struct ScoreResponse {
  uint64_t request_id = 0;
  ResponseCode code = ResponseCode::kOk;
  Vec scores;           ///< meaningful iff code == kOk
  std::string message;  ///< meaningful iff code != kOk
};

struct MetricsRequest {
  uint64_t request_id = 0;
};

/// Typed registry snapshot for live monitoring: the daemon's counters and
/// gauges (live in every build), the handler's facts such as the dataset
/// shape in the gauges section, cumulative histogram quantiles, and
/// windowed quantiles over the daemon's recent ticks.
struct MetricsResponse {
  uint64_t request_id = 0;
  obs::RegistrySnapshot snapshot;
};

/// Validates the payload header and returns the message type; an unknown
/// type is a Status error.
Result<MessageType> PeekMessageType(std::string_view payload);

std::string EncodeScoreRequest(const ScoreRequest& req);
std::string EncodeScoreResponse(const ScoreResponse& resp);
std::string EncodeMetricsRequest(const MetricsRequest& req);
std::string EncodeMetricsResponse(const MetricsResponse& resp);

Status DecodeScoreRequest(std::string_view payload, ScoreRequest* out);
Status DecodeScoreResponse(std::string_view payload, ScoreResponse* out);
Status DecodeMetricsRequest(std::string_view payload, MetricsRequest* out);
Status DecodeMetricsResponse(std::string_view payload, MetricsResponse* out);

/// Writes one length-prefixed frame. Handles partial writes and EINTR;
/// never raises SIGPIPE (a closed peer is an IOError). `payload` must be
/// a complete encoded message.
Status WriteFrame(int fd, std::string_view payload);

/// Reads one length-prefixed frame into `*payload`. A clean EOF at a
/// frame boundary sets `*eof` and returns OK with an empty payload; EOF
/// mid-frame, a zero or oversized length prefix, or any socket error is
/// a Status error.
Status ReadFrame(int fd, std::string* payload, bool* eof);

}  // namespace retina::serve

#endif  // RETINA_SERVE_PROTOCOL_H_
