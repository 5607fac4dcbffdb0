// Binary wire protocol for the UPA network front door.
//
// Everything that crosses the socket is a FRAME:
//
//   offset  size  field
//   0       4     magic      0x55504157 ("UPAW", little-endian u32)
//   4       1     version    kWireVersion (2)
//   5       1     type       FrameType
//   6       2     reserved   must be 0
//   8       4     payload_len  (little-endian; at most kDefaultMaxFrameBytes)
//   12      8     checksum   FNV-1a 64 over header[0..12) ++ payload
//   20      len   payload
//
// The checksum covers the header prefix as well as the payload, so ANY
// single-byte corruption of a frame — magic, version, type, length,
// payload, or the checksum itself — is detected: the frame either fails a
// field validation or fails the checksum. This is the property the wire
// torture suite exercises exhaustively (tests/net_wire_test.cpp).
//
// Payloads are written and read with the shared byte codec
// (common/bytes.h): little-endian scalars, doubles as raw IEEE-754 bits,
// strings as u32 length + bytes.
//
// Request/response payloads:
//   kQueryRequest   client_tag, tenant, dataset_id, epsilon, seed,
//                   deadline_ms, sql, client_nonce, client_seq
//                   (idempotency key; 0 = unkeyed)
//   kQueryResponse  client_tag, status code + message, the QueryResponse
//                   in its one byte layout (service::EncodeResponse, the
//                   same bytes a kRelease journal record keeps for
//                   replays), retry_after_ms backoff hint
//   kStatsRequest   (empty)
//   kStatsResponse  text
//   kError          status code + message, retry_after_ms; the server
//                   closes the connection after sending one (framing can
//                   no longer be trusted once a frame was rejected).
//
// Version 2 dropped kQueryRequest's client-chosen cache fingerprint and
// gave kQueryResponse the shared response layout; a version-1 peer gets
// "unsupported wire version", never a misparse.
//
// `client_tag` is chosen by the client and echoed verbatim: responses may
// complete out of submission order (two datasets pipelined on one
// connection), so the tag — not arrival order — matches them up.
//
// Decoding never trusts a length field: every read is bounds-checked
// against the remaining bytes and trailing garbage is rejected, so a
// hostile frame can make a decode FAIL but never over-read (ASan-verified
// by the torture suite).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"
#include "service/service.h"

namespace upa::net {

inline constexpr uint32_t kWireMagic = 0x55504157u;  // "UPAW"
inline constexpr uint8_t kWireVersion = 2;
inline constexpr size_t kFrameHeaderBytes = 20;
/// Receiver-side cap on payload_len, at every end of every link. A frame
/// claiming more is rejected before any buffering commitment is made.
inline constexpr size_t kDefaultMaxFrameBytes = 1u << 20;

enum class FrameType : uint8_t {
  kQueryRequest = 1,
  kQueryResponse = 2,
  kStatsRequest = 3,
  kStatsResponse = 4,
  kError = 5,
};

/// A decoded frame: type + raw payload bytes.
struct Frame {
  FrameType type = FrameType::kError;
  std::string payload;
};

/// One analyst query as it travels client → server.
struct WireQuery {
  uint64_t client_tag = 0;
  std::string tenant;
  std::string dataset_id;
  double epsilon = 0.1;
  uint64_t seed = 0;
  int64_t deadline_ms = 0;
  std::string sql;
  /// Idempotency key. (client_nonce, client_seq) with nonce != 0 names
  /// this request uniquely across retries: a re-submission with the same
  /// key replays the journaled response instead of re-running (and never
  /// re-charges budget). nonce == 0 means "no key" — every submission is
  /// a fresh query. net::Client stamps a key automatically.
  uint64_t client_nonce = 0;
  uint64_t client_seq = 0;
};

/// The full release outcome as it travels server → client: the Status plus
/// (when ok) every field of service::QueryResponse.
struct WireResult {
  uint64_t client_tag = 0;
  StatusCode code = StatusCode::kOk;
  std::string message;
  service::QueryResponse response;
  /// Backoff hint on kResourceExhausted / kUnavailable (0 = none).
  int64_t retry_after_ms = 0;

  /// The wire form of a service outcome: its response when ok, else its
  /// code, message and retry hint. status() is the inverse.
  static WireResult From(uint64_t client_tag,
                         Result<service::QueryResponse> outcome);

  bool ok() const { return code == StatusCode::kOk; }
  Status status() const {
    if (ok()) return Status::Ok();
    Status st(code, message);
    st.set_retry_after_ms(retry_after_ms);
    return st;
  }
};

/// Wrap a payload in a checksummed frame, ready to write to a socket.
std::string EncodeFrame(FrameType type, std::string_view payload);

std::string EncodeQueryFrame(const WireQuery& query);
std::string EncodeResultFrame(const WireResult& result);
std::string EncodeStatsRequestFrame();
std::string EncodeStatsResponseFrame(std::string_view text);
std::string EncodeErrorFrame(const Status& status);

Status DecodeQueryPayload(std::string_view payload, WireQuery* out);
Status DecodeResultPayload(std::string_view payload, WireResult* out);
Status DecodeStatsResponsePayload(std::string_view payload, std::string* out);
Status DecodeErrorPayload(std::string_view payload, Status* out);

/// Incremental frame extraction from a byte stream. Feed whatever the
/// socket produced; Next() hands back complete, checksum-verified frames.
/// Any framing violation (bad magic/version/reserved, oversize length,
/// checksum mismatch, unknown type) is terminal for the stream: the
/// assembler latches the error and the connection must be closed — there
/// is no way to resynchronise a corrupt length-prefixed stream.
class FrameAssembler {
 public:
  enum class Outcome { kNeedMore, kFrame, kError };

  void Feed(std::string_view bytes);

  /// kFrame: `*frame` holds the next complete frame. kNeedMore: the buffer
  /// holds only a partial frame. kError: the stream is corrupt; `*error`
  /// explains (and every later call returns the same error).
  Outcome Next(Frame* frame, Status* error);

  size_t buffered_bytes() const { return buffer_.size() - consumed_; }

 private:
  std::string buffer_;
  size_t consumed_ = 0;  // bytes of buffer_ already handed out as frames
  Status latched_error_ = Status::Ok();
  bool poisoned_ = false;
};

}  // namespace upa::net
