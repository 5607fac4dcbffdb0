#include "net/wire.h"

#include "common/bytes.h"
#include "common/hash.h"

namespace upa::net {
namespace {

/// Highest valid StatusCode value on the wire (codes are appended to the
/// enum, so this is the trailing member).
constexpr uint8_t kMaxStatusCode =
    static_cast<uint8_t>(StatusCode::kUnavailable);

Status DecodeStatusCode(uint8_t raw, StatusCode* out) {
  if (raw > kMaxStatusCode) {
    return Status::InvalidArgument("unknown status code on wire: " +
                                   std::to_string(raw));
  }
  *out = static_cast<StatusCode>(raw);
  return Status::Ok();
}

bool KnownFrameType(uint8_t raw) {
  return raw >= static_cast<uint8_t>(FrameType::kQueryRequest) &&
         raw <= static_cast<uint8_t>(FrameType::kError);
}

}  // namespace

WireResult WireResult::From(uint64_t client_tag,
                            Result<service::QueryResponse> outcome) {
  WireResult result;
  result.client_tag = client_tag;
  if (outcome.ok()) {
    result.response = std::move(outcome).value();
  } else {
    result.code = outcome.status().code();
    result.message = outcome.status().message();
    result.retry_after_ms = outcome.status().retry_after_ms();
  }
  return result;
}

std::string EncodeFrame(FrameType type, std::string_view payload) {
  PayloadWriter w;
  w.PutU32(kWireMagic);
  w.PutU8(kWireVersion);
  w.PutU8(static_cast<uint8_t>(type));
  w.PutU8(0);  // reserved
  w.PutU8(0);
  w.PutU32(static_cast<uint32_t>(payload.size()));
  // Checksum the header prefix first, then the payload, so corruption of
  // ANY frame byte (checksum field aside, which then mismatches) trips it.
  w.PutU64(Fnv1a(payload, Fnv1a(w.bytes())));
  w.PutBytes(payload);
  return w.Take();
}

std::string EncodeQueryFrame(const WireQuery& query) {
  PayloadWriter w;
  w.PutU64(query.client_tag);
  w.PutString(query.tenant);
  w.PutString(query.dataset_id);
  w.PutDouble(query.epsilon);
  w.PutU64(query.seed);
  w.PutI64(query.deadline_ms);
  w.PutString(query.sql);
  w.PutU64(query.client_nonce);
  w.PutU64(query.client_seq);
  return EncodeFrame(FrameType::kQueryRequest, w.bytes());
}

std::string EncodeResultFrame(const WireResult& result) {
  PayloadWriter w;
  w.PutU64(result.client_tag);
  w.PutU8(static_cast<uint8_t>(result.code));
  w.PutString(result.message);
  service::EncodeResponse(result.response, &w);
  w.PutI64(result.retry_after_ms);
  return EncodeFrame(FrameType::kQueryResponse, w.bytes());
}

std::string EncodeStatsRequestFrame() {
  return EncodeFrame(FrameType::kStatsRequest, {});
}

std::string EncodeStatsResponseFrame(std::string_view text) {
  PayloadWriter w;
  w.PutString(text);
  return EncodeFrame(FrameType::kStatsResponse, w.bytes());
}

std::string EncodeErrorFrame(const Status& status) {
  PayloadWriter w;
  w.PutU8(static_cast<uint8_t>(status.code()));
  w.PutString(status.message());
  w.PutI64(status.retry_after_ms());
  return EncodeFrame(FrameType::kError, w.bytes());
}

Status DecodeQueryPayload(std::string_view payload, WireQuery* out) {
  PayloadReader r(payload);
  UPA_RETURN_IF_ERROR(r.GetU64(&out->client_tag));
  UPA_RETURN_IF_ERROR(r.GetString(&out->tenant));
  UPA_RETURN_IF_ERROR(r.GetString(&out->dataset_id));
  UPA_RETURN_IF_ERROR(r.GetDouble(&out->epsilon));
  UPA_RETURN_IF_ERROR(r.GetU64(&out->seed));
  UPA_RETURN_IF_ERROR(r.GetI64(&out->deadline_ms));
  UPA_RETURN_IF_ERROR(r.GetString(&out->sql));
  UPA_RETURN_IF_ERROR(r.GetU64(&out->client_nonce));
  UPA_RETURN_IF_ERROR(r.GetU64(&out->client_seq));
  return r.ExpectEnd();
}

Status DecodeResultPayload(std::string_view payload, WireResult* out) {
  PayloadReader r(payload);
  UPA_RETURN_IF_ERROR(r.GetU64(&out->client_tag));
  uint8_t code = 0;
  UPA_RETURN_IF_ERROR(r.GetU8(&code));
  UPA_RETURN_IF_ERROR(DecodeStatusCode(code, &out->code));
  UPA_RETURN_IF_ERROR(r.GetString(&out->message));
  UPA_RETURN_IF_ERROR(service::DecodeResponse(&r, &out->response));
  UPA_RETURN_IF_ERROR(r.GetI64(&out->retry_after_ms));
  return r.ExpectEnd();
}

Status DecodeStatsResponsePayload(std::string_view payload, std::string* out) {
  PayloadReader r(payload);
  UPA_RETURN_IF_ERROR(r.GetString(out));
  return r.ExpectEnd();
}

Status DecodeErrorPayload(std::string_view payload, Status* out) {
  PayloadReader r(payload);
  uint8_t code = 0;
  UPA_RETURN_IF_ERROR(r.GetU8(&code));
  StatusCode parsed = StatusCode::kInternal;
  UPA_RETURN_IF_ERROR(DecodeStatusCode(code, &parsed));
  std::string message;
  UPA_RETURN_IF_ERROR(r.GetString(&message));
  int64_t retry_after_ms = 0;
  UPA_RETURN_IF_ERROR(r.GetI64(&retry_after_ms));
  UPA_RETURN_IF_ERROR(r.ExpectEnd());
  *out = Status(parsed, std::move(message));
  out->set_retry_after_ms(retry_after_ms);
  return Status::Ok();
}

void FrameAssembler::Feed(std::string_view bytes) {
  if (poisoned_) return;  // stream already condemned; drop everything
  // Compact consumed prefix before growing (keeps the buffer bounded by
  // one partial frame plus whatever a single Feed delivered).
  if (consumed_ > 0) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  buffer_.append(bytes.data(), bytes.size());
}

FrameAssembler::Outcome FrameAssembler::Next(Frame* frame, Status* error) {
  if (poisoned_) {
    *error = latched_error_;
    return Outcome::kError;
  }
  std::string_view view(buffer_.data() + consumed_,
                        buffer_.size() - consumed_);
  if (view.size() < kFrameHeaderBytes) return Outcome::kNeedMore;

  auto poison = [&](Status status) {
    poisoned_ = true;
    latched_error_ = std::move(status);
    *error = latched_error_;
    return Outcome::kError;
  };

  uint32_t magic = LoadU32(view.data());
  if (magic != kWireMagic) {
    return poison(Status::InvalidArgument("bad frame magic"));
  }
  uint8_t version = static_cast<unsigned char>(view[4]);
  if (version != kWireVersion) {
    return poison(Status::InvalidArgument("unsupported wire version " +
                                          std::to_string(version)));
  }
  uint8_t raw_type = static_cast<unsigned char>(view[5]);
  if (!KnownFrameType(raw_type)) {
    return poison(Status::InvalidArgument("unknown frame type " +
                                          std::to_string(raw_type)));
  }
  if (view[6] != 0 || view[7] != 0) {
    return poison(Status::InvalidArgument("nonzero reserved frame bytes"));
  }
  uint32_t payload_len = LoadU32(view.data() + 8);
  if (payload_len > kDefaultMaxFrameBytes) {
    return poison(Status::ResourceExhausted(
        "frame payload of " + std::to_string(payload_len) +
        " bytes exceeds the " + std::to_string(kDefaultMaxFrameBytes) +
        "-byte limit"));
  }
  if (view.size() < kFrameHeaderBytes + payload_len) return Outcome::kNeedMore;

  uint64_t expected = LoadU64(view.data() + 12);
  uint64_t sum = Fnv1a(view.substr(kFrameHeaderBytes, payload_len),
                       Fnv1a(view.substr(0, 12)));
  if (sum != expected) {
    return poison(Status::InvalidArgument("frame checksum mismatch"));
  }

  frame->type = static_cast<FrameType>(raw_type);
  frame->payload.assign(view.data() + kFrameHeaderBytes, payload_len);
  consumed_ += kFrameHeaderBytes + payload_len;
  return Outcome::kFrame;
}

}  // namespace upa::net
