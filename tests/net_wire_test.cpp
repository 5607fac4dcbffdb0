// Protocol-torture suite for the wire format (src/net/wire.h).
//
// The properties under test, all seeded and deterministic:
//   - round-trip: random frames encode → (chunked) assemble → decode
//     bit-identically, including doubles compared by raw IEEE-754 bits;
//   - corruption: EVERY single-byte corruption of a frame (every position ×
//     every wrong byte value) is rejected — kError or kNeedMore, never a
//     delivered frame. FNV-1a's per-step bijectivity makes this exhaustive
//     property deterministic, not probabilistic;
//   - truncation: every strict prefix of a valid frame is kNeedMore, never
//     a frame and never an error;
//   - hostile bytes never crash or over-read (run under ASan in CI).
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/hash.h"
#include "common/rng.h"
#include "net/wire.h"

using namespace upa;
using namespace upa::net;

namespace {

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// Doubles whose bit patterns exercise the encoder: ±0, denormals, inf,
/// NaN payloads, plus ordinary values.
double RandomDouble(Rng& rng) {
  switch (rng.UniformU64(6)) {
    case 0:
      return rng.UniformDouble(-1e9, 1e9);
    case 1:
      return -0.0;
    case 2: {
      double v = 0;
      uint64_t bits = rng.NextU64();  // arbitrary bits, incl. NaN/denormal
      std::memcpy(&v, &bits, sizeof(v));
      return v;
    }
    case 3:
      return std::numeric_limits<double>::infinity();
    case 4:
      return std::numeric_limits<double>::denorm_min();
    default:
      return rng.Normal();
  }
}

/// Strings with embedded NULs, high bytes, and lengths crossing the chunk
/// sizes the assembler is fed with.
std::string RandomString(Rng& rng, size_t max_len) {
  size_t len = rng.UniformU64(max_len + 1);
  std::string s(len, '\0');
  for (size_t i = 0; i < len; ++i) {
    s[i] = static_cast<char>(rng.UniformU64(256));
  }
  return s;
}

WireQuery RandomQuery(Rng& rng) {
  WireQuery q;
  q.client_tag = rng.NextU64();
  q.tenant = RandomString(rng, 24);
  q.dataset_id = RandomString(rng, 24);
  q.epsilon = RandomDouble(rng);
  q.seed = rng.NextU64();
  (void)rng.NextU64();  // keeps the later fields' draws where they were
  q.deadline_ms = static_cast<int64_t>(rng.NextU64());
  q.sql = RandomString(rng, 200);
  return q;
}

WireResult RandomResult(Rng& rng) {
  WireResult r;
  r.client_tag = rng.NextU64();
  r.code = static_cast<StatusCode>(rng.UniformU64(10));
  r.message = RandomString(rng, 80);
  r.response.released = RandomDouble(rng);
  r.response.epsilon = RandomDouble(rng);
  r.response.local_sensitivity = RandomDouble(rng);
  r.response.out_range.lo = RandomDouble(rng);
  r.response.out_range.hi = RandomDouble(rng);
  r.response.attack_suspected = rng.UniformU64(2) == 1;
  r.response.records_removed = static_cast<size_t>(rng.UniformU64(1000));
  r.response.degenerate_sensitivity = rng.UniformU64(2) == 1;
  r.response.sensitivity_cache_hit = rng.UniformU64(2) == 1;
  r.response.dataset_epoch = rng.NextU64();
  r.response.queue_seconds = RandomDouble(rng);
  r.response.seconds.sample = RandomDouble(rng);
  r.response.seconds.map = RandomDouble(rng);
  r.response.seconds.reduce = RandomDouble(rng);
  r.response.seconds.enforce = RandomDouble(rng);
  r.response.seconds.total = RandomDouble(rng);
  return r;
}

/// Feed `bytes` to a fresh assembler in random-sized chunks and return
/// every frame it produces. Fails the test on a framing error.
std::vector<Frame> AssembleChunked(std::string_view bytes, Rng& rng) {
  FrameAssembler assembler;
  std::vector<Frame> frames;
  size_t pos = 0;
  while (pos < bytes.size()) {
    size_t chunk = 1 + rng.UniformU64(97);
    chunk = std::min(chunk, bytes.size() - pos);
    assembler.Feed(bytes.substr(pos, chunk));
    pos += chunk;
    for (;;) {
      Frame frame;
      Status error = Status::Ok();
      FrameAssembler::Outcome outcome = assembler.Next(&frame, &error);
      if (outcome == FrameAssembler::Outcome::kNeedMore) break;
      EXPECT_NE(outcome, FrameAssembler::Outcome::kError)
          << error.ToString() << " (valid stream must never error)";
      if (outcome == FrameAssembler::Outcome::kError) return frames;
      frames.push_back(std::move(frame));
    }
  }
  return frames;
}

void ExpectQueriesBitIdentical(const WireQuery& a, const WireQuery& b) {
  EXPECT_EQ(a.client_tag, b.client_tag);
  EXPECT_EQ(a.tenant, b.tenant);
  EXPECT_EQ(a.dataset_id, b.dataset_id);
  EXPECT_EQ(Bits(a.epsilon), Bits(b.epsilon));
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.deadline_ms, b.deadline_ms);
  EXPECT_EQ(a.sql, b.sql);
}

void ExpectResultsBitIdentical(const WireResult& a, const WireResult& b) {
  EXPECT_EQ(a.client_tag, b.client_tag);
  EXPECT_EQ(a.code, b.code);
  EXPECT_EQ(a.message, b.message);
  EXPECT_EQ(Bits(a.response.released), Bits(b.response.released));
  EXPECT_EQ(Bits(a.response.epsilon), Bits(b.response.epsilon));
  EXPECT_EQ(Bits(a.response.local_sensitivity),
            Bits(b.response.local_sensitivity));
  EXPECT_EQ(Bits(a.response.out_range.lo), Bits(b.response.out_range.lo));
  EXPECT_EQ(Bits(a.response.out_range.hi), Bits(b.response.out_range.hi));
  EXPECT_EQ(a.response.attack_suspected, b.response.attack_suspected);
  EXPECT_EQ(a.response.records_removed, b.response.records_removed);
  EXPECT_EQ(a.response.degenerate_sensitivity,
            b.response.degenerate_sensitivity);
  EXPECT_EQ(a.response.sensitivity_cache_hit,
            b.response.sensitivity_cache_hit);
  EXPECT_EQ(a.response.dataset_epoch, b.response.dataset_epoch);
  EXPECT_EQ(Bits(a.response.queue_seconds), Bits(b.response.queue_seconds));
  EXPECT_EQ(Bits(a.response.seconds.sample), Bits(b.response.seconds.sample));
  EXPECT_EQ(Bits(a.response.seconds.map), Bits(b.response.seconds.map));
  EXPECT_EQ(Bits(a.response.seconds.reduce), Bits(b.response.seconds.reduce));
  EXPECT_EQ(Bits(a.response.seconds.enforce),
            Bits(b.response.seconds.enforce));
  EXPECT_EQ(Bits(a.response.seconds.total), Bits(b.response.seconds.total));
}

TEST(NetWire, QueryFramesRoundTripBitIdentically) {
  Rng rng(20260806);
  for (int i = 0; i < 200; ++i) {
    WireQuery query = RandomQuery(rng);
    std::string bytes = EncodeQueryFrame(query);
    std::vector<Frame> frames = AssembleChunked(bytes, rng);
    ASSERT_EQ(frames.size(), 1u);
    ASSERT_EQ(frames[0].type, FrameType::kQueryRequest);
    WireQuery decoded;
    ASSERT_TRUE(DecodeQueryPayload(frames[0].payload, &decoded).ok());
    ExpectQueriesBitIdentical(query, decoded);
  }
}

TEST(NetWire, ResultFramesRoundTripBitIdentically) {
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    WireResult result = RandomResult(rng);
    std::string bytes = EncodeResultFrame(result);
    std::vector<Frame> frames = AssembleChunked(bytes, rng);
    ASSERT_EQ(frames.size(), 1u);
    ASSERT_EQ(frames[0].type, FrameType::kQueryResponse);
    WireResult decoded;
    ASSERT_TRUE(DecodeResultPayload(frames[0].payload, &decoded).ok());
    ExpectResultsBitIdentical(result, decoded);
  }
}

TEST(NetWire, VersionTwoResultFrameRoundTripsEveryFieldBitForBit) {
  WireResult result;
  result.client_tag = 0x0123456789abcdefULL;
  result.code = StatusCode::kOk;
  result.message = std::string("ok\0\xff", 4);
  service::QueryResponse& r = result.response;
  uint64_t nan_bits = 0x7ff80000c0ffee01ULL;
  std::memcpy(&r.released, &nan_bits, sizeof(nan_bits));
  r.epsilon = -0.0;
  r.local_sensitivity = std::numeric_limits<double>::denorm_min();
  r.out_range.lo = -std::numeric_limits<double>::infinity();
  r.out_range.hi = 1e308;
  r.attack_suspected = true;
  r.records_removed = 64;
  r.degenerate_sensitivity = true;
  r.sensitivity_cache_hit = true;
  r.dataset_epoch = ~uint64_t{0};
  r.queue_seconds = 0.25;
  r.seconds = {1.0, 2.0, 3.0, 4.0, 10.0};
  result.retry_after_ms = -7;

  std::string bytes = EncodeResultFrame(result);
  ASSERT_EQ(static_cast<uint8_t>(bytes[4]), 2);
  ASSERT_EQ(kWireVersion, 2);
  FrameAssembler assembler;
  assembler.Feed(bytes);
  Frame frame;
  Status error = Status::Ok();
  ASSERT_EQ(assembler.Next(&frame, &error), FrameAssembler::Outcome::kFrame);
  WireResult decoded;
  ASSERT_TRUE(DecodeResultPayload(frame.payload, &decoded).ok());
  ExpectResultsBitIdentical(result, decoded);
  EXPECT_EQ(decoded.retry_after_ms, -7);
  // Between the status and retry_after_ms sits exactly the journal's
  // response blob: one layout for the wire and the dedup window.
  std::string status_prefix = frame.payload.substr(0, 8 + 1 + 4 + 4);
  EXPECT_EQ(frame.payload.substr(status_prefix.size(),
                                 frame.payload.size() - status_prefix.size() -
                                     8),
            service::EncodeResponseBlob(r));
}

TEST(NetWire, ResponseFlagBitsTheDecoderDoesNotKnowAreRejected) {
  std::string blob = service::EncodeResponseBlob(service::QueryResponse{});
  blob[5 * 8] = static_cast<char>(0x08);  // low byte of the flag word
  service::QueryResponse response;
  EXPECT_FALSE(service::DecodeResponseBlob(blob, &response).ok());
}

TEST(NetWire, VersionOneFrameWithAValidChecksumIsAnUnsupportedVersion) {
  // A version-1 frame, checksummed exactly as its sender would have.
  PayloadWriter header;
  header.PutU32(kWireMagic);
  header.PutU8(1);
  header.PutU8(static_cast<uint8_t>(FrameType::kStatsRequest));
  header.PutU8(0);
  header.PutU8(0);
  header.PutU32(0);
  header.PutU64(Fnv1a(header.bytes()));
  FrameAssembler assembler;
  assembler.Feed(header.bytes());
  Frame frame;
  Status error = Status::Ok();
  ASSERT_EQ(assembler.Next(&frame, &error), FrameAssembler::Outcome::kError);
  EXPECT_EQ(error.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(error.message().find("unsupported wire version 1"),
            std::string::npos)
      << error.ToString();
}

TEST(NetWire, StatsAndErrorFramesRoundTrip) {
  Rng rng(99);
  std::string text = RandomString(rng, 4000);
  std::vector<Frame> frames =
      AssembleChunked(EncodeStatsResponseFrame(text), rng);
  ASSERT_EQ(frames.size(), 1u);
  std::string decoded_text;
  ASSERT_TRUE(
      DecodeStatsResponsePayload(frames[0].payload, &decoded_text).ok());
  EXPECT_EQ(text, decoded_text);

  Status error_in = Status::ResourceExhausted("queue full");
  frames = AssembleChunked(EncodeErrorFrame(error_in), rng);
  ASSERT_EQ(frames.size(), 1u);
  ASSERT_EQ(frames[0].type, FrameType::kError);
  Status error_out = Status::Ok();
  ASSERT_TRUE(DecodeErrorPayload(frames[0].payload, &error_out).ok());
  EXPECT_EQ(error_in.code(), error_out.code());
  EXPECT_EQ(error_in.message(), error_out.message());

  frames = AssembleChunked(EncodeStatsRequestFrame(), rng);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, FrameType::kStatsRequest);
  EXPECT_TRUE(frames[0].payload.empty());
}

TEST(NetWire, PipelinedFramesSurviveArbitraryChunking) {
  Rng rng(1234);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<WireQuery> queries;
    std::string stream;
    size_t count = 1 + rng.UniformU64(8);
    for (size_t i = 0; i < count; ++i) {
      queries.push_back(RandomQuery(rng));
      stream += EncodeQueryFrame(queries.back());
    }
    std::vector<Frame> frames = AssembleChunked(stream, rng);
    ASSERT_EQ(frames.size(), queries.size());
    for (size_t i = 0; i < frames.size(); ++i) {
      WireQuery decoded;
      ASSERT_TRUE(DecodeQueryPayload(frames[i].payload, &decoded).ok());
      ExpectQueriesBitIdentical(queries[i], decoded);
    }
  }
}

/// The exhaustive corruption property: for every byte position and every
/// wrong value of that byte, the assembler must refuse to deliver a frame.
/// (kNeedMore is acceptable — corrupting the length field upward makes the
/// frame look incomplete — but a delivered frame would be an undetected
/// corruption.) Also counts toward the ≥1000-seeded-mutation bar: this is
/// ~frame_size × 255 mutations per frame.
void ExpectEveryByteCorruptionRejected(const std::string& valid) {
  for (size_t pos = 0; pos < valid.size(); ++pos) {
    for (int delta = 1; delta < 256; ++delta) {
      std::string corrupt = valid;
      corrupt[pos] = static_cast<char>(
          (static_cast<unsigned char>(valid[pos]) + delta) & 0xff);
      FrameAssembler assembler;
      assembler.Feed(corrupt);
      Frame frame;
      Status error = Status::Ok();
      FrameAssembler::Outcome outcome = assembler.Next(&frame, &error);
      ASSERT_NE(outcome, FrameAssembler::Outcome::kFrame)
          << "undetected corruption at byte " << pos << " delta " << delta;
      // A second poke must not crash or change its mind.
      outcome = assembler.Next(&frame, &error);
      ASSERT_NE(outcome, FrameAssembler::Outcome::kFrame);
    }
  }
}

TEST(NetWire, EverySingleByteCorruptionOfAQueryFrameIsRejected) {
  Rng rng(42);
  WireQuery query = RandomQuery(rng);
  query.sql = "SELECT COUNT(*) FROM lineitem";
  ExpectEveryByteCorruptionRejected(EncodeQueryFrame(query));
}

TEST(NetWire, EverySingleByteCorruptionOfAResultFrameIsRejected) {
  Rng rng(43);
  ExpectEveryByteCorruptionRejected(EncodeResultFrame(RandomResult(rng)));
}

TEST(NetWire, EverySingleByteCorruptionOfAnEmptyPayloadFrameIsRejected) {
  ExpectEveryByteCorruptionRejected(EncodeStatsRequestFrame());
}

TEST(NetWire, EveryTruncationPrefixIsNeedMoreNeverAFrame) {
  Rng rng(44);
  std::string valid = EncodeResultFrame(RandomResult(rng));
  for (size_t len = 0; len < valid.size(); ++len) {
    FrameAssembler assembler;
    assembler.Feed(std::string_view(valid).substr(0, len));
    Frame frame;
    Status error = Status::Ok();
    EXPECT_EQ(assembler.Next(&frame, &error),
              FrameAssembler::Outcome::kNeedMore)
        << "prefix length " << len;
  }
  // The full frame, for contrast, parses.
  FrameAssembler assembler;
  assembler.Feed(valid);
  Frame frame;
  Status error = Status::Ok();
  EXPECT_EQ(assembler.Next(&frame, &error), FrameAssembler::Outcome::kFrame);
}

TEST(NetWire, SeededRandomGarbageNeverCrashesOrOverReads) {
  Rng rng(20260807);
  for (int trial = 0; trial < 500; ++trial) {
    std::string garbage = RandomString(rng, 300);
    FrameAssembler assembler;
    size_t pos = 0;
    while (pos < garbage.size()) {
      size_t chunk = std::min<size_t>(1 + rng.UniformU64(64),
                                      garbage.size() - pos);
      assembler.Feed(std::string_view(garbage).substr(pos, chunk));
      pos += chunk;
      Frame frame;
      Status error = Status::Ok();
      // Drain; any outcome is legal, crashing or over-reading is not.
      while (assembler.Next(&frame, &error) ==
             FrameAssembler::Outcome::kFrame) {
      }
    }
    // Hostile payloads against every decoder: must fail or succeed, never
    // read out of bounds (ASan enforces).
    WireQuery query;
    (void)DecodeQueryPayload(garbage, &query);
    WireResult result;
    (void)DecodeResultPayload(garbage, &result);
    std::string text;
    (void)DecodeStatsResponsePayload(garbage, &text);
    Status status = Status::Ok();
    (void)DecodeErrorPayload(garbage, &status);
  }
}

TEST(NetWire, StringLengthLyingBeyondPayloadIsRejected) {
  // A payload whose string claims more bytes than the payload holds must
  // fail cleanly (the checksum is valid — the lie is inside the payload).
  PayloadWriter w;
  w.PutU64(7);              // client_tag
  w.PutU32(0xffffffffu);    // tenant length: 4 GiB lie
  std::string frame_bytes = EncodeFrame(FrameType::kQueryRequest, w.bytes());
  FrameAssembler assembler;
  assembler.Feed(frame_bytes);
  Frame frame;
  Status error = Status::Ok();
  ASSERT_EQ(assembler.Next(&frame, &error), FrameAssembler::Outcome::kFrame);
  WireQuery query;
  Status decoded = DecodeQueryPayload(frame.payload, &query);
  EXPECT_EQ(decoded.code(), StatusCode::kInvalidArgument);
}

TEST(NetWire, TrailingPayloadBytesAreRejected) {
  Rng rng(45);
  WireQuery query = RandomQuery(rng);
  std::string valid = EncodeQueryFrame(query);
  // Rebuild the frame with one trailing payload byte (and a correct
  // checksum, so only ExpectEnd can catch it).
  std::string payload = valid.substr(kFrameHeaderBytes);
  payload.push_back('\0');
  std::string padded = EncodeFrame(FrameType::kQueryRequest, payload);
  FrameAssembler assembler;
  assembler.Feed(padded);
  Frame frame;
  Status error = Status::Ok();
  ASSERT_EQ(assembler.Next(&frame, &error), FrameAssembler::Outcome::kFrame);
  WireQuery decoded;
  EXPECT_FALSE(DecodeQueryPayload(frame.payload, &decoded).ok());
}

TEST(NetWire, OversizeFrameIsRejectedBeforeBuffering) {
  FrameAssembler assembler;
  const std::string big = EncodeFrame(
      FrameType::kQueryRequest, std::string(kDefaultMaxFrameBytes + 1, 'x'));
  // Feed only the header: the length field alone must condemn the frame.
  assembler.Feed(std::string_view(big).substr(0, kFrameHeaderBytes));
  Frame frame;
  Status error = Status::Ok();
  ASSERT_EQ(assembler.Next(&frame, &error), FrameAssembler::Outcome::kError);
  EXPECT_EQ(error.code(), StatusCode::kResourceExhausted);
}

TEST(NetWire, AssemblerErrorIsLatched) {
  FrameAssembler assembler;
  std::string bad(kFrameHeaderBytes, '\0');  // magic 0: invalid
  assembler.Feed(bad);
  Frame frame;
  Status error = Status::Ok();
  ASSERT_EQ(assembler.Next(&frame, &error), FrameAssembler::Outcome::kError);
  Status first = error;
  // A later valid frame must NOT resurrect the stream.
  assembler.Feed(EncodeStatsRequestFrame());
  ASSERT_EQ(assembler.Next(&frame, &error), FrameAssembler::Outcome::kError);
  EXPECT_EQ(error.code(), first.code());
  EXPECT_EQ(error.message(), first.message());
}

TEST(NetWire, UnknownStatusCodeOnWireIsRejected) {
  PayloadWriter w;
  w.PutU8(200);  // far beyond kDeadlineExceeded
  w.PutString("boom");
  Status out = Status::Ok();
  EXPECT_FALSE(DecodeErrorPayload(w.bytes(), &out).ok());
}

}  // namespace
