#include "common/bytes.h"

#include <bit>

namespace upa {

uint32_t LoadU32(const char* p) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  return static_cast<uint32_t>(b[0]) | (static_cast<uint32_t>(b[1]) << 8) |
         (static_cast<uint32_t>(b[2]) << 16) |
         (static_cast<uint32_t>(b[3]) << 24);
}

uint64_t LoadU64(const char* p) {
  uint64_t v = 0;
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  for (int i = 7; i >= 0; --i) v = (v << 8) | b[i];
  return v;
}

Status PayloadReader::GetU8(uint8_t* out) {
  if (remaining() < 1) {
    return Status::InvalidArgument("payload truncated reading u8");
  }
  *out = static_cast<unsigned char>(bytes_[pos_++]);
  return Status::Ok();
}

Status PayloadReader::GetU32(uint32_t* out) {
  if (remaining() < 4) {
    return Status::InvalidArgument("payload truncated reading u32");
  }
  *out = LoadU32(bytes_.data() + pos_);
  pos_ += 4;
  return Status::Ok();
}

Status PayloadReader::GetU64(uint64_t* out) {
  if (remaining() < 8) {
    return Status::InvalidArgument("payload truncated reading u64");
  }
  *out = LoadU64(bytes_.data() + pos_);
  pos_ += 8;
  return Status::Ok();
}

Status PayloadReader::GetI64(int64_t* out) {
  uint64_t bits = 0;
  UPA_RETURN_IF_ERROR(GetU64(&bits));
  *out = static_cast<int64_t>(bits);
  return Status::Ok();
}

Status PayloadReader::GetDouble(double* out) {
  uint64_t bits = 0;
  UPA_RETURN_IF_ERROR(GetU64(&bits));
  *out = std::bit_cast<double>(bits);
  return Status::Ok();
}

Status PayloadReader::GetString(std::string* out) {
  uint32_t len = 0;
  UPA_RETURN_IF_ERROR(GetU32(&len));
  // The length came from the bytes; it must fit in what is actually here.
  if (remaining() < len) {
    return Status::InvalidArgument(
        "payload truncated reading string of claimed length " +
        std::to_string(len));
  }
  out->assign(bytes_.data() + pos_, len);
  pos_ += len;
  return Status::Ok();
}

Status PayloadReader::ExpectEnd() const {
  if (remaining() != 0) {
    return Status::InvalidArgument(std::to_string(remaining()) +
                                   " trailing bytes after payload");
  }
  return Status::Ok();
}

void PayloadWriter::PutU32(uint32_t v) {
  for (int i = 0; i < 4; ++i) out_.push_back(static_cast<char>(v >> (8 * i)));
}

void PayloadWriter::PutU64(uint64_t v) {
  for (int i = 0; i < 8; ++i) out_.push_back(static_cast<char>(v >> (8 * i)));
}

void PayloadWriter::PutDouble(double v) { PutU64(std::bit_cast<uint64_t>(v)); }

void PayloadWriter::PutString(std::string_view s) {
  PutU32(static_cast<uint32_t>(s.size()));
  PutBytes(s);
}

}  // namespace upa
