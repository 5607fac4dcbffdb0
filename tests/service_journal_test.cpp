// Journal wire format, torn-tail handling, and recovery semantics (the
// ledger is Σ released ε; legacy charge/refund records replay as no-ops;
// replay is bit-exact; every byte prefix recovers; damage fails closed).
#include "service/journal.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/hash.h"

namespace upa::service {
namespace {

namespace fs = std::filesystem;

/// A fresh empty directory per test, removed afterwards.
class JournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::path(::testing::TempDir()) /
            ("upa_journal_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir_;
};

// Charge and Refund records are no longer written, but journals written by
// older binaries hold them, so recovery must still read them.
JournalRecord Charge(uint64_t qid, double eps) {
  JournalRecord rec;
  rec.type = JournalRecord::Type::kCharge;
  rec.qid = qid;
  rec.epsilon = eps;
  return rec;
}

JournalRecord Release(uint64_t qid, double eps, std::vector<double> outputs) {
  JournalRecord rec;
  rec.type = JournalRecord::Type::kRelease;
  rec.qid = qid;
  rec.epsilon = eps;
  rec.partition_outputs = std::move(outputs);
  return rec;
}

JournalRecord Refund(uint64_t qid, double eps) {
  JournalRecord rec;
  rec.type = JournalRecord::Type::kRefund;
  rec.qid = qid;
  rec.epsilon = eps;
  return rec;
}

/// Recovers `dir`, which must hold exactly one dataset's journal.
Result<DatasetDurableState> RecoverOne(const std::string& dir) {
  auto states_or = RecoverAll(dir);
  UPA_RETURN_IF_ERROR(states_or.status());
  if (states_or.value().size() != 1) {
    return Status::Internal(std::to_string(states_or.value().size()) +
                            " datasets recovered");
  }
  return std::move(states_or.value().front());
}

/// Lower-case hex of `bytes`, for golden-byte comparisons.
std::string Hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (char c : bytes) {
    out.push_back(kDigits[static_cast<unsigned char>(c) >> 4]);
    out.push_back(kDigits[static_cast<unsigned char>(c) & 0xf]);
  }
  return out;
}

std::string FileBytes(const std::string& path) {
  std::string data;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return data;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) data.append(buf, n);
  std::fclose(f);
  return data;
}

/// A quiet NaN carrying a payload: the codec must keep every bit.
double NanWithPayload() {
  uint64_t bits = 0x7ff80000c0ffee01ULL;
  double v = 0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

TEST_F(JournalTest, RoundTripsRecordsBitExactly) {
  auto journal_or = Journal::Open(dir_, "sales");
  ASSERT_TRUE(journal_or.ok()) << journal_or.status().ToString();
  std::unique_ptr<Journal> journal = std::move(journal_or).value();

  // Values chosen to stress bit-exactness: denormals, negatives, values
  // with no short decimal representation.
  std::vector<double> outputs{1.0 / 3.0, -0.0, 5e-324, 1e308};
  ASSERT_TRUE(journal->Append(Charge(1, 0.1)).ok());
  ASSERT_TRUE(journal->Append(Release(1, 0.1, outputs)).ok());
  JournalRecord bump;
  bump.type = JournalRecord::Type::kEpochBump;
  bump.epoch = 7;
  ASSERT_TRUE(journal->Append(bump).ok());

  bool torn = true;
  auto records_or = Journal::ReadAll(journal->path(), &torn);
  ASSERT_TRUE(records_or.ok()) << records_or.status().ToString();
  EXPECT_FALSE(torn);
  const auto& records = records_or.value();
  ASSERT_EQ(records.size(), 4u);  // kOpen header + 3 appends
  EXPECT_EQ(records[0].type, JournalRecord::Type::kOpen);
  EXPECT_EQ(records[0].dataset_id, "sales");
  EXPECT_EQ(records[1].type, JournalRecord::Type::kCharge);
  EXPECT_EQ(records[1].qid, 1u);
  EXPECT_EQ(records[2].type, JournalRecord::Type::kRelease);
  ASSERT_EQ(records[2].partition_outputs.size(), outputs.size());
  for (size_t i = 0; i < outputs.size(); ++i) {
    // Bitwise comparison: -0.0 == 0.0 under operator==, so compare
    // representations.
    EXPECT_EQ(std::memcmp(&records[2].partition_outputs[i], &outputs[i],
                          sizeof(double)),
              0)
        << "output " << i;
  }
  EXPECT_EQ(records[3].type, JournalRecord::Type::kEpochBump);
  EXPECT_EQ(records[3].epoch, 7u);
}

TEST_F(JournalTest, TornTailStopsAtLastIntactRecord) {
  std::string path;
  {
    auto journal_or = Journal::Open(dir_, "ds");
    ASSERT_TRUE(journal_or.ok());
    auto journal = std::move(journal_or).value();
    ASSERT_TRUE(journal->Append(Charge(1, 0.1)).ok());
    ASSERT_TRUE(journal->Append(Charge(2, 0.2)).ok());
    path = journal->path();
  }
  // Simulate a crash mid-append: chop bytes off the final record.
  uint64_t size = fs::file_size(path);
  fs::resize_file(path, size - 5);

  bool torn = false;
  uint64_t intact = 0;
  auto records_or = Journal::ReadAll(path, &torn, &intact);
  ASSERT_TRUE(records_or.ok());
  EXPECT_TRUE(torn);
  ASSERT_EQ(records_or.value().size(), 2u);  // kOpen + first charge
  EXPECT_EQ(records_or.value()[1].qid, 1u);
  EXPECT_LT(intact, size - 5);
}

TEST_F(JournalTest, CorruptedPayloadIsATornTail) {
  std::string path;
  {
    auto journal_or = Journal::Open(dir_, "ds");
    ASSERT_TRUE(journal_or.ok());
    ASSERT_TRUE(journal_or.value()->Append(Charge(1, 0.1)).ok());
    path = journal_or.value()->path();
  }
  // Flip one byte in the last record's payload: the checksum must catch it.
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fseek(f, -1, SEEK_END);
  int last = std::fgetc(f);
  std::fseek(f, -1, SEEK_END);
  std::fputc(last ^ 0xff, f);
  std::fclose(f);

  bool torn = false;
  auto records_or = Journal::ReadAll(path, &torn);
  ASSERT_TRUE(records_or.ok());
  EXPECT_TRUE(torn);
  EXPECT_EQ(records_or.value().size(), 1u);  // only the kOpen header
}

// A legacy journal: each release was bracketed by a charge, and a failed
// run by a refund. Only the releases count now, and they recover the spent
// budget the charge/refund replay gave: 0.1 + 0.3.
TEST_F(JournalTest, RecoveryReplaysChargesReleasesRefunds) {
  {
    auto journal = std::move(Journal::Open(dir_, "ds").value());
    ASSERT_TRUE(journal->Append(Charge(1, 0.1)).ok());
    ASSERT_TRUE(journal->Append(Release(1, 0.1, {4.0, 5.0})).ok());
    ASSERT_TRUE(journal->Append(Charge(2, 0.2)).ok());
    ASSERT_TRUE(journal->Append(Refund(2, 0.2)).ok());
    ASSERT_TRUE(journal->Append(Charge(3, 0.3)).ok());
    ASSERT_TRUE(journal->Append(Release(3, 0.3, {6.0, 7.0})).ok());
  }
  auto state_or = RecoverOne(dir_);
  ASSERT_TRUE(state_or.ok()) << state_or.status().ToString();
  const DatasetDurableState& state = state_or.value();
  EXPECT_EQ(state.charged_total, 0.1 + 0.3);
  ASSERT_EQ(state.registry.size(), 2u);
  EXPECT_EQ(state.registry[0], (std::vector<double>{4.0, 5.0}));
  EXPECT_EQ(state.registry[1], (std::vector<double>{6.0, 7.0}));
}

// A legacy journal whose writer died between a charge and its release: the
// charge was never acknowledged, so nothing is spent — on the first
// recovery and on the second.
TEST_F(JournalTest, DanglingChargeIsRefundedExactlyOnce) {
  {
    auto journal = std::move(Journal::Open(dir_, "ds").value());
    ASSERT_TRUE(journal->Append(Charge(1, 0.1)).ok());
    // Crash: no release, no refund.
  }
  for (int recovery = 0; recovery < 2; ++recovery) {
    auto state_or = RecoverOne(dir_);
    ASSERT_TRUE(state_or.ok()) << state_or.status().ToString();
    EXPECT_EQ(state_or.value().charged_total, 0.0) << recovery;
    EXPECT_TRUE(state_or.value().registry.empty()) << recovery;
  }
}

// A restarted process appends to the journal it recovered; the next
// recovery replays those records after the earlier ones.
TEST_F(JournalTest, AppendsAfterARestartReplayAfterTheRecoveredRecords) {
  {
    auto journal = std::move(Journal::Open(dir_, "ds").value());
    ASSERT_TRUE(journal->Append(Charge(1, 0.1)).ok());
    ASSERT_TRUE(journal->Append(Release(1, 0.1, {4.0, 5.0})).ok());
  }
  ASSERT_TRUE(RecoverOne(dir_).ok());

  // New process; qids may restart.
  {
    auto journal = std::move(Journal::Open(dir_, "ds").value());
    ASSERT_TRUE(journal->Append(Charge(1, 0.2)).ok());
    ASSERT_TRUE(journal->Append(Release(1, 0.2, {8.0, 9.0})).ok());
  }
  auto state_or = RecoverOne(dir_);
  ASSERT_TRUE(state_or.ok()) << state_or.status().ToString();
  const DatasetDurableState& state = state_or.value();
  EXPECT_EQ(state.charged_total, 0.1 + 0.2);
  ASSERT_EQ(state.registry.size(), 2u);
  EXPECT_EQ(state.registry[0], (std::vector<double>{4.0, 5.0}));
  EXPECT_EQ(state.registry[1], (std::vector<double>{8.0, 9.0}));
}

TEST_F(JournalTest, TornTailIsTruncatedSoNewAppendsAreReachable) {
  {
    auto journal = std::move(Journal::Open(dir_, "ds").value());
    ASSERT_TRUE(journal->Append(Charge(1, 0.1)).ok());
    ASSERT_TRUE(journal->Append(Charge(2, 0.2)).ok());
  }
  std::string path =
      (fs::path(dir_) / (Journal::FileStem("ds") + ".journal")).string();
  fs::resize_file(path, fs::file_size(path) - 3);

  // Recovery drops the fragment (charge 2); the dangling legacy charge 1
  // spends nothing.
  auto state_or = RecoverOne(dir_);
  ASSERT_TRUE(state_or.ok()) << state_or.status().ToString();
  EXPECT_EQ(state_or.value().charged_total, 0.0);

  // Appends after the truncation land on a clean tail and replay fine.
  {
    auto journal = std::move(Journal::Open(dir_, "ds").value());
    ASSERT_TRUE(journal->Append(Charge(5, 0.5)).ok());
    ASSERT_TRUE(journal->Append(Release(5, 0.5, {1.0, 2.0})).ok());
  }
  bool torn = true;
  auto records_or = Journal::ReadAll(path, &torn);
  ASSERT_TRUE(records_or.ok());
  EXPECT_FALSE(torn);
  auto final_or = RecoverOne(dir_);
  ASSERT_TRUE(final_or.ok()) << final_or.status().ToString();
  EXPECT_EQ(final_or.value().charged_total, 0.5);
  ASSERT_EQ(final_or.value().registry.size(), 1u);
  EXPECT_EQ(final_or.value().registry[0], (std::vector<double>{1.0, 2.0}));
}

// A crash can stop an append at any byte, so every byte prefix of a
// journal is a file recovery may meet. Each must recover to the state of
// its last whole record (registry, charge, epoch and dedup window), with
// the file cut exactly at that record's end; a prefix too short to hold
// the kOpen header names no dataset, and recovery refuses it untouched.
TEST_F(JournalTest, EveryBytePrefixRecoversTheLastWholeRecord) {
  struct Expected {
    uint64_t end = 0;  // file size once the record is whole
    std::vector<std::vector<double>> registry;
    double charged_total = 0.0;
    uint64_t epoch = 0;
    std::vector<DedupDurableEntry> window;  // oldest first
  };
  constexpr size_t kWindow = 2;
  std::vector<Expected> script;  // one entry per whole record
  std::string path;
  {
    auto journal_or = Journal::Open(dir_, "ds", /*fsync=*/false);
    ASSERT_TRUE(journal_or.ok()) << journal_or.status().ToString();
    auto journal = std::move(journal_or).value();
    path = journal->path();
    Expected state;
    auto whole = [&] {
      state.end = fs::file_size(path);
      script.push_back(state);
    };
    whole();  // the kOpen header
    for (uint64_t seq = 1; seq <= 4; ++seq) {
      JournalRecord release =
          Release(0, 0.125 * static_cast<double>(seq),
                  {1.5 * static_cast<double>(seq), -0.0});
      release.nonce = 0xabc;
      release.key_seq = seq;
      release.request_hash = 1000 + seq;
      release.response_blob =
          std::string(3 * seq, static_cast<char>('a' + seq));
      ASSERT_TRUE(journal->Append(release).ok());
      state.registry.push_back(release.partition_outputs);
      state.charged_total += release.epsilon;
      state.window.push_back({release.nonce, release.key_seq,
                              release.request_hash, release.response_blob});
      whole();
      if (seq == 2) {
        JournalRecord bump;
        bump.type = JournalRecord::Type::kEpochBump;
        bump.epoch = 5;
        ASSERT_TRUE(journal->Append(bump).ok());
        state.epoch = 5;
        whole();
      }
      if (state.window.size() > kWindow) {
        JournalRecord expire;
        expire.type = JournalRecord::Type::kExpire;
        expire.nonce = state.window.front().nonce;
        expire.key_seq = state.window.front().seq;
        ASSERT_TRUE(journal->Append(expire).ok());
        state.window.erase(state.window.begin());
        whole();
      }
    }
  }
  ASSERT_EQ(script.size(), 1u + 4u + 1u + 2u);
  const std::string bytes = FileBytes(path);
  ASSERT_EQ(bytes.size(), script.back().end);

  const std::string copy_dir = (fs::path(dir_) / "prefix").string();
  const std::string copy =
      (fs::path(copy_dir) / fs::path(path).filename()).string();
  const Expected nothing;
  for (size_t len = 0; len <= bytes.size(); ++len) {
    fs::remove_all(copy_dir);
    fs::create_directories(copy_dir);
    {
      std::ofstream out(copy, std::ios::binary);
      out.write(bytes.data(), static_cast<std::streamsize>(len));
    }
    const Expected* want = &nothing;
    for (const Expected& e : script) {
      if (e.end <= len) want = &e;
    }
    auto state_or = RecoverOne(copy_dir);
    if (want == &nothing) {
      EXPECT_EQ(state_or.status().code(), StatusCode::kInternal)
          << "prefix " << len;
      EXPECT_EQ(fs::file_size(copy), len) << "prefix " << len;
      continue;
    }
    ASSERT_TRUE(state_or.ok()) << "prefix " << len << ": "
                               << state_or.status().ToString();
    const DatasetDurableState& got = state_or.value();
    EXPECT_EQ(got.dataset_id, "ds") << "prefix " << len;
    EXPECT_EQ(fs::file_size(copy), want->end) << "prefix " << len;
    EXPECT_EQ(got.registry, want->registry) << "prefix " << len;
    EXPECT_EQ(got.charged_total, want->charged_total) << "prefix " << len;
    EXPECT_EQ(got.epoch, want->epoch) << "prefix " << len;
    ASSERT_EQ(got.dedup.size(), want->window.size()) << "prefix " << len;
    for (size_t i = 0; i < got.dedup.size(); ++i) {
      EXPECT_EQ(got.dedup[i].seq, want->window[i].seq) << "prefix " << len;
      EXPECT_EQ(got.dedup[i].nonce, want->window[i].nonce);
      EXPECT_EQ(got.dedup[i].request_hash, want->window[i].request_hash);
      EXPECT_EQ(got.dedup[i].response_blob, want->window[i].response_blob);
    }
  }
}

// A torn write cannot produce a matching checksum, so a checksum-valid
// frame the reader cannot decode is a format this binary does not know
// (say, a record type from a newer binary). Treating it as a torn tail
// would cut every later record, releases included, and hand spent budget
// back. Recovery must refuse it and leave the file alone.
TEST_F(JournalTest, ChecksumValidUndecodableRecordFailsRecoveryUntouched) {
  std::string path;
  {
    auto journal = std::move(Journal::Open(dir_, "ds").value());
    path = journal->path();
    ASSERT_TRUE(journal->Append(Charge(1, 0.25)).ok());
  }
  // Record type 7, otherwise the shape of a charge without key fields.
  std::string payload(1 + 8 + 8 + 8 + 4 + 4, '\0');
  payload[0] = 7;
  std::string frame;
  auto put_le = [&frame](uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      frame.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  };
  put_le(payload.size(), 4);
  put_le(Fnv1a(payload), 8);
  frame += payload;
  std::FILE* f = std::fopen(path.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(frame.data(), 1, frame.size(), f), frame.size());
  std::fclose(f);
  {
    auto journal = std::move(Journal::Open(dir_, "ds").value());
    ASSERT_TRUE(journal->Append(Charge(2, 0.5)).ok());
    ASSERT_TRUE(journal->Append(Charge(3, 0.125)).ok());
  }
  ASSERT_EQ(fs::file_size(path), 339u);

  EXPECT_EQ(Journal::ReadAll(path).status().code(), StatusCode::kInternal);
  auto state_or = RecoverOne(dir_);
  EXPECT_EQ(state_or.status().code(), StatusCode::kInternal)
      << (state_or.ok() ? "recovered charged_total " +
                              std::to_string(state_or.value().charged_total)
                        : state_or.status().ToString());
  EXPECT_EQ(fs::file_size(path), 339u);
}

// Append writes one frame per call, so a crash can tear only the last one.
// A bad frame with intact frames after it is damage — say, a flipped bit
// on disk. Cutting the file there as if it were a torn tail would drop
// every later release and hand their ε back; recovery must refuse the
// journal and leave every byte of it alone.
TEST_F(JournalTest, DamagedFrameBeforeIntactOnesFailsRecoveryUntouched) {
  std::string path;
  std::vector<uint64_t> ends;  // file size after each frame
  {
    auto journal = std::move(Journal::Open(dir_, "ds").value());
    path = journal->path();
    ends.push_back(fs::file_size(path));
    for (uint64_t i = 1; i <= 5; ++i) {
      ASSERT_TRUE(journal->Append(Release(i, 0.25, {1.0, 2.0})).ok());
      ends.push_back(fs::file_size(path));
    }
  }
  // Flip the last payload byte of the second release.
  std::string bytes = FileBytes(path);
  bytes[ends[2] - 1] ^= 0x01;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  bool torn = false;
  auto records_or = Journal::ReadAll(path, &torn);
  EXPECT_EQ(records_or.status().code(), StatusCode::kInternal)
      << (records_or.ok() ? std::to_string(records_or.value().size()) +
                                " records, torn " + std::to_string(torn)
                          : records_or.status().ToString());
  auto state_or = RecoverOne(dir_);
  EXPECT_EQ(state_or.status().code(), StatusCode::kInternal)
      << (state_or.ok() ? "recovered charged_total " +
                              std::to_string(state_or.value().charged_total)
                        : state_or.status().ToString());
  EXPECT_NE(state_or.status().message().find(path), std::string::npos)
      << state_or.status().ToString();
  EXPECT_EQ(FileBytes(path), bytes);
}

TEST_F(JournalTest, RecoverAllFindsEveryDataset) {
  for (const char* id : {"alpha", "beta", "sales/2026 Q1"}) {
    auto journal = std::move(Journal::Open(dir_, id).value());
    ASSERT_TRUE(journal->Append(Charge(1, 0.1)).ok());
    ASSERT_TRUE(journal->Append(Release(1, 0.1, {1.0, 2.0})).ok());
  }
  auto states_or = RecoverAll(dir_);
  ASSERT_TRUE(states_or.ok()) << states_or.status().ToString();
  ASSERT_EQ(states_or.value().size(), 3u);
  std::vector<std::string> ids;
  for (const auto& state : states_or.value()) {
    ids.push_back(state.dataset_id);
    EXPECT_EQ(state.registry.size(), 1u) << state.dataset_id;
  }
  EXPECT_NE(std::find(ids.begin(), ids.end(), "sales/2026 Q1"), ids.end());
}

TEST_F(JournalTest, FileStemSanitizesAndDisambiguates) {
  std::string a = Journal::FileStem("sales/2026 Q1");
  std::string b = Journal::FileStem("sales_2026_Q1");
  EXPECT_EQ(a.find('/'), std::string::npos);
  EXPECT_EQ(a.find(' '), std::string::npos);
  // Same sanitized prefix, different hash suffix: no collision.
  EXPECT_NE(a, b);
  EXPECT_EQ(Journal::FileStem("x"), Journal::FileStem("x"));
}

// The journal bytes are an on-disk format: every existing journal recovers
// only while they stay exactly as written. This golden test pins one
// record of each type, with fields that stress the encoding (-0.0, the
// smallest denormal, a NaN payload, a non-empty idempotency key and
// response blob).
TEST_F(JournalTest, GoldenBytesOfEveryRecordType) {
  std::string path;
  {
    auto journal_or = Journal::Open(dir_, "gold", /*fsync=*/false);
    ASSERT_TRUE(journal_or.ok()) << journal_or.status().ToString();
    auto journal = std::move(journal_or).value();
    path = journal->path();
    ASSERT_TRUE(journal->Append(Charge(1, -0.0)).ok());
    JournalRecord release =
        Release(1, 5e-324, {NanWithPayload(), -0.0, 5e-324});
    release.nonce = 0x1122334455667788ULL;
    release.key_seq = 9;
    release.request_hash = 0xfeedfacecafebeefULL;
    release.response_blob = std::string("blob\0\xff", 6);
    ASSERT_TRUE(journal->Append(release).ok());
    ASSERT_TRUE(journal->Append(Refund(2, NanWithPayload())).ok());
    JournalRecord bump;
    bump.type = JournalRecord::Type::kEpochBump;
    bump.epoch = 0x0102030405060708ULL;
    ASSERT_TRUE(journal->Append(bump).ok());
    JournalRecord expire;
    expire.type = JournalRecord::Type::kExpire;
    expire.nonce = 0x1122334455667788ULL;
    expire.key_seq = 9;
    ASSERT_TRUE(journal->Append(expire).ok());
  }
  // One frame per line: [u32 len][u64 fnv1a][payload].
  const std::string expected = std::string() +
      // kOpen "gold"
      "410000007e7b11b8e0e30c800100000000000000000000000000000000000000"
      "00000000000000000004000000676f6c64000000000000000000000000000000"
      "00000000000000000000000000" +
      // kCharge qid 1, epsilon -0.0
      "3d000000849bf7de67f091040201000000000000000000000000000080000000"
      "0000000000000000000000000000000000000000000000000000000000000000"
      "000000000000000000" +
      // kRelease with three outputs, a key and a 6-byte blob
      "5b000000629458b7d7eafb630301000000000000000100000000000000000000"
      "00000000000300000001eeffc00000f87f000000000000008001000000000000"
      "000000000088776655443322110900000000000000efbefecacefaedfe060000"
      "00626c6f6200ff" +
      // kRefund qid 2, epsilon NaN with payload
      "3d000000386032c19c90603d04020000000000000001eeffc00000f87f000000"
      "0000000000000000000000000000000000000000000000000000000000000000"
      "000000000000000000" +
      // kEpochBump
      "3d000000f8b8e18fd813d8d00500000000000000000000000000000000080706"
      "0504030201000000000000000000000000000000000000000000000000000000"
      "000000000000000000" +
      // kExpire
      "3d00000010beca5bed6178b00600000000000000000000000000000000000000"
      "0000000000000000000000000088776655443322110900000000000000000000"
      "000000000000000000";
  EXPECT_EQ(Hex(FileBytes(path)), expected);
}

TEST_F(JournalTest, RecoverAllOnMissingDirIsEmpty) {
  auto states_or = RecoverAll((fs::path(dir_) / "nope").string());
  ASSERT_TRUE(states_or.ok());
  EXPECT_TRUE(states_or.value().empty());
}

}  // namespace
}  // namespace upa::service
