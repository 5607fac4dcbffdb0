// Idempotency-key semantics of UpaService: exactly-once replay from the
// dedup window, request-hash binding, LRU window eviction (with durable
// kExpire records), and the rebuild of the window by journal recovery.
#include <gtest/gtest.h>

#include <stdlib.h>

#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "service/service.h"
#include "upa/simple_query.h"

namespace upa::service {
namespace {

namespace fs = std::filesystem;

engine::ExecContext& Ctx() {
  static engine::ExecContext ctx(
      engine::ExecConfig{.threads = 2, .default_partitions = 4});
  return ctx;
}

core::QueryInstance CountQuery(size_t n, const std::string& name = "count") {
  core::SimpleQuerySpec<int> spec;
  spec.name = name;
  spec.ctx = &Ctx();
  auto records = std::make_shared<std::vector<int>>(n, 0);
  std::iota(records->begin(), records->end(), 0);
  spec.records = records;
  spec.map_record = [](const int&) { return core::Vec{1.0}; };
  spec.sample_domain = [](Rng& rng) {
    return static_cast<int>(rng.UniformU64(1000000));
  };
  return core::MakeSimpleQuery(std::move(spec));
}

ServiceConfig FastConfig() {
  ServiceConfig config;
  config.upa.sample_n = 100;
  return config;
}

QueryRequest KeyedRequest(const std::string& dataset, uint64_t nonce,
                          uint64_t seq, uint64_t seed = 1,
                          const std::string& name = "count") {
  QueryRequest request;
  request.tenant = "alice";
  request.dataset_id = dataset;
  request.query = CountQuery(5000, name);
  request.epsilon = 0.1;
  request.seed = seed;
  request.client_nonce = nonce;
  request.client_seq = seq;
  return request;
}

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// The response blob rides every keyed kRelease record, so its bytes are an
// on-disk format. A fixed response with every flag set must encode to
// exactly these bytes and decode back to the same bits.
TEST(ServiceIdempotencyTest, ResponseBlobBytesArePinned) {
  QueryResponse r;
  r.released = -0.0;
  r.epsilon = 0.5;
  r.local_sensitivity = 5e-324;
  r.out_range.lo = -std::numeric_limits<double>::infinity();
  r.out_range.hi = 1e308;
  r.attack_suspected = true;
  r.records_removed = 64;
  r.degenerate_sensitivity = true;
  r.sensitivity_cache_hit = true;
  r.dataset_epoch = 0x0102030405060708ULL;
  r.queue_seconds = 0.25;
  r.seconds.sample = 1.0;
  r.seconds.map = 2.0;
  r.seconds.reduce = 3.0;
  r.seconds.enforce = 4.0;
  r.seconds.total = 10.0;

  std::string blob = EncodeResponseBlob(r);
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (char c : blob) {
    hex.push_back(kDigits[static_cast<unsigned char>(c) >> 4]);
    hex.push_back(kDigits[static_cast<unsigned char>(c) & 0xf]);
  }
  // released, epsilon, local_sensitivity, out_range lo/hi, the flag word
  // (attack 1 | degenerate 2 | cache hit 4), records_removed,
  // dataset_epoch, queue_seconds and the five phase timings.
  EXPECT_EQ(hex,
            "0000000000000080000000000000e03f0100000000000000000000000000f0ff"
            "a0c8eb85f3cce17f070000000000000040000000000000000807060504030201"
            "000000000000d03f000000000000f03f00000000000000400000000000000840"
            "00000000000010400000000000002440");

  QueryResponse decoded;
  ASSERT_TRUE(DecodeResponseBlob(blob, &decoded).ok());
  EXPECT_EQ(EncodeResponseBlob(decoded), blob);
  EXPECT_TRUE(decoded.attack_suspected);
  EXPECT_TRUE(decoded.degenerate_sensitivity);
  EXPECT_TRUE(decoded.sensitivity_cache_hit);
  EXPECT_EQ(decoded.records_removed, 64u);
}

TEST(ServiceIdempotencyTest, RetryOfCompletedKeyReplaysWithoutCharging) {
  UpaService service(&Ctx(), FastConfig());
  auto first = service.Execute(KeyedRequest("ds", 0xabc, 1));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_NEAR(service.accountant().Spent("ds"), 0.1, 1e-12);

  auto retry = service.Execute(KeyedRequest("ds", 0xabc, 1));
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  // Byte-identical release, and the budget did NOT move.
  EXPECT_EQ(Bits(retry.value().released), Bits(first.value().released));
  EXPECT_EQ(retry.value().records_removed, first.value().records_removed);
  EXPECT_EQ(retry.value().dataset_epoch, first.value().dataset_epoch);
  EXPECT_EQ(Bits(retry.value().seconds.total),
            Bits(first.value().seconds.total));
  EXPECT_NEAR(service.accountant().Spent("ds"), 0.1, 1e-12);
  EXPECT_EQ(service.DedupWindowSize("ds"), 1u);
}

TEST(ServiceIdempotencyTest, KeyReuseForDifferentRequestIsRejected) {
  UpaService service(&Ctx(), FastConfig());
  ASSERT_TRUE(service.Execute(KeyedRequest("ds", 0xabc, 1)).ok());
  // Same key, different query (name feeds the request hash): client bug.
  auto reused =
      service.Execute(KeyedRequest("ds", 0xabc, 1, 2, "other-count"));
  ASSERT_FALSE(reused.ok());
  EXPECT_EQ(reused.status().code(), StatusCode::kInvalidArgument);
  // The bad reuse charged nothing.
  EXPECT_NEAR(service.accountant().Spent("ds"), 0.1, 1e-12);
}

TEST(ServiceIdempotencyTest, UnkeyedRequestsNeverDedup) {
  UpaService service(&Ctx(), FastConfig());
  ASSERT_TRUE(service.Execute(KeyedRequest("ds", 0, 0)).ok());
  ASSERT_TRUE(service.Execute(KeyedRequest("ds", 0, 0)).ok());
  // Two fresh runs, two charges, nothing windowed.
  EXPECT_NEAR(service.accountant().Spent("ds"), 0.2, 1e-12);
  EXPECT_EQ(service.DedupWindowSize("ds"), 0u);
}

TEST(ServiceIdempotencyTest, WindowEvictsOldestKeyWhichThenRunsFresh) {
  ServiceConfig config = FastConfig();
  config.budget_per_dataset = 1000.0;
  UpaService service(&Ctx(), config);
  constexpr uint64_t kKeys = UpaService::kDedupWindow + 1;
  double spent = 0.0;  // summed as the accountant sums it
  for (uint64_t seq = 1; seq <= kKeys; ++seq) {
    ASSERT_TRUE(service.Execute(KeyedRequest("ds", 0xabc, seq, seq)).ok());
    spent += 0.1;
  }
  EXPECT_EQ(service.DedupWindowSize("ds"), UpaService::kDedupWindow);
  EXPECT_NEAR(service.accountant().Spent("ds"), spent, 1e-12);

  // Key 1 aged out: its retry is no longer a replay — it runs (and
  // charges) again. The window is a bounded at-most-once guarantee.
  ASSERT_TRUE(service.Execute(KeyedRequest("ds", 0xabc, 1, 1)).ok());
  EXPECT_NEAR(service.accountant().Spent("ds"), spent + 0.1, 1e-12);
}

TEST(ServiceIdempotencyTest, RecoveryRebuildsWindowAndRepaysRetries) {
  char tmp[] = "/tmp/upa-idem-XXXXXX";
  ASSERT_NE(::mkdtemp(tmp), nullptr);
  const std::string dir = tmp;

  ServiceConfig config = FastConfig();
  config.journal_dir = dir;
  config.journal_fsync = false;  // process-death durability is enough here

  uint64_t first_bits = 0;
  {
    UpaService service(&Ctx(), config);
    auto first = service.Execute(KeyedRequest("ds", 0xabc, 1));
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    first_bits = Bits(first.value().released);
  }
  // "Restart": a new service over the same journal dir must answer the
  // retried key from the recovered window — same bits, no new charge.
  {
    UpaService service(&Ctx(), config);
    EXPECT_EQ(service.DedupWindowSize("ds"), 1u);
    auto retry = service.Execute(KeyedRequest("ds", 0xabc, 1));
    ASSERT_TRUE(retry.ok()) << retry.status().ToString();
    EXPECT_EQ(Bits(retry.value().released), first_bits);
    EXPECT_NEAR(service.accountant().Spent("ds"), 0.1, 1e-12);
  }

  std::error_code ec;
  fs::remove_all(dir, ec);
}

// Older builds journaled an unkeyed release with its request's key but no
// response blob. Recovery must not put such a key in the window.
TEST(ServiceIdempotencyTest, KeyWithoutResponseBlobStaysOutOfTheWindow) {
  char tmp[] = "/tmp/upa-idem-XXXXXX";
  ASSERT_NE(::mkdtemp(tmp), nullptr);
  const std::string dir = tmp;
  {
    auto journal = Journal::Open(dir, "ds", /*fsync=*/false);
    ASSERT_TRUE(journal.ok()) << journal.status().ToString();
    JournalRecord release;
    release.type = JournalRecord::Type::kRelease;
    release.epsilon = 0.1;
    release.partition_outputs = {1.0, 2.0};
    release.nonce = 5;
    release.key_seq = 1;
    ASSERT_TRUE(journal.value()->Append(release).ok());
  }

  ServiceConfig config = FastConfig();
  config.journal_dir = dir;
  config.journal_fsync = false;
  UpaService service(&Ctx(), config);
  ASSERT_TRUE(service.recovery_status().ok())
      << service.recovery_status().ToString();
  EXPECT_EQ(service.DedupWindowSize("ds"), 0u);
  EXPECT_NEAR(service.accountant().Spent("ds"), 0.1, 1e-12);
  EXPECT_EQ(service.DebugState("ds").registry.size(), 1u);

  std::error_code ec;
  fs::remove_all(dir, ec);
}

}  // namespace
}  // namespace upa::service
