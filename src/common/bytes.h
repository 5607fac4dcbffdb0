// The one little-endian byte codec: wire payloads, journal records and
// the serialized QueryResponse all go through it.
//
// Scalars are little-endian; doubles travel as their raw IEEE-754 bits,
// so -0.0, denormals and NaN payloads survive bit for bit (releases must
// be bit-identical across the wire and across a restart). A string is a
// u32 length followed by its bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "common/status.h"

namespace upa {

/// Little-endian loads from a buffer the caller has already bounds-checked.
uint32_t LoadU32(const char* p);
uint64_t LoadU64(const char* p);

/// Bounds-checked little-endian reader. Every getter fails with
/// kInvalidArgument instead of reading past the end.
class PayloadReader {
 public:
  explicit PayloadReader(std::string_view bytes) : bytes_(bytes) {}

  Status GetU8(uint8_t* out);
  Status GetU32(uint32_t* out);
  Status GetU64(uint64_t* out);
  Status GetI64(int64_t* out);
  Status GetDouble(double* out);  // raw IEEE-754 bits
  Status GetString(std::string* out);
  /// Rejects trailing bytes — a valid payload is consumed exactly.
  Status ExpectEnd() const;

  size_t remaining() const { return bytes_.size() - pos_; }

 private:
  std::string_view bytes_;
  size_t pos_ = 0;
};

/// Little-endian writer (appends to an internal buffer).
class PayloadWriter {
 public:
  void PutU8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  void PutDouble(double v);  // raw IEEE-754 bits
  void PutString(std::string_view s);
  /// Raw bytes, no length prefix (magic numbers, framed payloads).
  void PutBytes(std::string_view s) { out_.append(s.data(), s.size()); }

  std::string Take() { return std::move(out_); }
  const std::string& bytes() const { return out_; }

 private:
  std::string out_;
};

}  // namespace upa
