// Fragmented columnar storage: fragment directory + zone maps, predicate
// skip analysis (FragmentCanMatch), spill/reload, and the BufferManager's
// budget/LRU/eviction behaviour.
//
// The core contract under test: fragment size, memory budget, eviction
// timing and spill round-trips must never change a single output bit. The
// Zipf-skew differential at the bottom runs real plans over a deliberately
// skewed dataset across fragment sizes {7, 64K} × thread counts {1, 4} and
// compares every output, partition output and contribution bit-for-bit
// against the row oracle (suite name matches the CI TSan filter).
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "common/rng.h"
#include "engine/context.h"
#include "relational/buffer_manager.h"
#include "relational/columnar.h"
#include "relational/executor.h"
#include "relational/expr.h"
#include "relational/kernels.h"
#include "relational/plan.h"
#include "relational/table.h"

namespace upa::rel {
namespace {

uint64_t Bits(double d) { return std::bit_cast<uint64_t>(d); }

/// Restores the global fragment-size knob and BufferManager config on scope
/// exit so tests cannot leak configuration into each other.
struct GlobalConfigGuard {
  size_t fragment_rows = DefaultFragmentRows();
  BufferManager::Config buf = BufferManager::Instance().config();
  ~GlobalConfigGuard() {
    SetDefaultFragmentRows(fragment_rows);
    BufferManager::Instance().Configure(buf);
  }
};

Schema ThreeColSchema() {
  return Schema({{"id", ValueType::kInt},
                 {"v", ValueType::kDouble},
                 {"s", ValueType::kString}});
}

/// 100 rows: id = 0..99, v = id * 0.5, s cycles a/b/c.
std::vector<Row> ThreeColRows() {
  std::vector<Row> rows;
  for (int64_t i = 0; i < 100; ++i) {
    rows.push_back({Value{i}, Value{static_cast<double>(i) * 0.5},
                    Value{std::string(1, static_cast<char>('a' + i % 3))}});
  }
  return rows;
}

TEST(FragmentTest, DirectoryCoversRowsWithZoneMaps) {
  auto ct = ColumnarTable::Build(ThreeColSchema(), ThreeColRows(), 40);
  EXPECT_EQ(ct->fragment_rows(), 40u);
  ASSERT_EQ(ct->fragments().size(), 3u);  // 40 + 40 + 20

  uint32_t expect_begin = 0;
  size_t payload = 0;
  for (const FragmentInfo& f : ct->fragments()) {
    EXPECT_EQ(f.begin_row, expect_begin);
    EXPECT_GT(f.end_row, f.begin_row);
    EXPECT_GT(f.bytes, 0u);
    ASSERT_EQ(f.cols.size(), 3u);
    expect_begin = f.end_row;
    payload += f.bytes;
  }
  EXPECT_EQ(expect_begin, 100u);
  // Resident bytes = fragment payloads + dictionaries (so ≥ the payloads).
  EXPECT_GE(ct->resident_bytes(), payload);

  // Int zone maps are in the kernel's double domain.
  const FragmentInfo& f1 = ct->fragments()[1];
  ASSERT_TRUE(f1.cols[0].numeric_valid);
  EXPECT_EQ(f1.cols[0].min, 40.0);
  EXPECT_EQ(f1.cols[0].max, 79.0);
  ASSERT_TRUE(f1.cols[1].numeric_valid);
  EXPECT_EQ(f1.cols[1].min, 20.0);
  EXPECT_EQ(f1.cols[1].max, 39.5);
  // Every fragment sees all three letters, so code bounds span the dict.
  ASSERT_TRUE(f1.cols[2].codes_valid);
  EXPECT_EQ(f1.cols[2].min_code, 0u);
  EXPECT_EQ(f1.cols[2].max_code, 2u);
}

TEST(FragmentTest, NanPoisonsOnlyItsFragment) {
  Schema schema({{"v", ValueType::kDouble}});
  std::vector<Row> rows;
  for (int64_t i = 0; i < 8; ++i) {
    rows.push_back({Value{i == 2 ? std::nan("") : static_cast<double>(i)}});
  }
  auto ct = ColumnarTable::Build(schema, rows, 4);
  ASSERT_EQ(ct->fragments().size(), 2u);
  EXPECT_FALSE(ct->fragments()[0].cols[0].numeric_valid);  // holds the NaN
  ASSERT_TRUE(ct->fragments()[1].cols[0].numeric_valid);
  EXPECT_EQ(ct->fragments()[1].cols[0].min, 4.0);
  EXPECT_EQ(ct->fragments()[1].cols[0].max, 7.0);
}

TEST(FragmentTest, DefaultFragmentRowsKnob) {
  GlobalConfigGuard guard;
  SetDefaultFragmentRows(5);
  auto ct = ColumnarTable::Build(ThreeColSchema(), ThreeColRows());
  EXPECT_EQ(ct->fragment_rows(), 5u);
  EXPECT_EQ(ct->fragments().size(), 20u);
}

// ---------------------------------------------------------------------------
// FragmentCanMatch: skip exactly when no row can satisfy the predicate.

class FragmentCanMatchTest : public ::testing::Test {
 protected:
  FragmentCanMatchTest()
      : schema_(ThreeColSchema()),
        ct_(ColumnarTable::Build(schema_, ThreeColRows(), 10)) {}

  /// Fragments whose FragmentCanMatch(pred) is true, as a bitset string
  /// ("1100000000" = only the first two of the ten 10-row fragments).
  std::string MatchMask(const ExprPtr& expr) {
    std::vector<const Column*> cols;
    for (size_t i = 0; i < schema_.NumColumns(); ++i) {
      cols.push_back(&ct_->column(i));
    }
    CompiledExpr pred = CompileExpr(expr, schema_, cols);
    std::string mask;
    for (size_t f = 0; f < ct_->fragments().size(); ++f) {
      mask += FragmentCanMatch(pred, *ct_, f) ? '1' : '0';
    }
    return mask;
  }

  Schema schema_;
  std::shared_ptr<const ColumnarTable> ct_;
};

TEST_F(FragmentCanMatchTest, NumericComparisons) {
  EXPECT_EQ(MatchMask(Lt(Col("id"), Lit(int64_t{25}))), "1110000000");
  EXPECT_EQ(MatchMask(Le(Col("id"), Lit(int64_t{30}))), "1111000000");
  EXPECT_EQ(MatchMask(Ge(Col("v"), Lit(40.0))), "0000000011");
  EXPECT_EQ(MatchMask(Eq(Col("id"), Lit(int64_t{55}))), "0000010000");
  EXPECT_EQ(MatchMask(Ne(Col("id"), Lit(int64_t{55}))), "1111111111");
  // Out-of-domain literals: nothing matches anywhere.
  EXPECT_EQ(MatchMask(Gt(Col("id"), Lit(int64_t{1000}))), "0000000000");
  // NaN defeats interval reasoning — never skip (col == NaN matches all
  // rows under the kernel's !(v<x)&&!(v>x) equality).
  EXPECT_EQ(MatchMask(Eq(Col("v"), Lit(std::nan("")))), "1111111111");
}

TEST_F(FragmentCanMatchTest, StringAndInSet) {
  // Every fragment holds codes {a,b,c}, so a present literal matches and an
  // absent one skips everywhere.
  EXPECT_EQ(MatchMask(Eq(Col("s"), Lit("b"))), "1111111111");
  EXPECT_EQ(MatchMask(Eq(Col("s"), Lit("zz"))), "0000000000");
  EXPECT_EQ(MatchMask(Lt(Col("s"), Lit("a"))), "0000000000");
  EXPECT_EQ(MatchMask(Ge(Col("s"), Lit("c"))), "1111111111");
  EXPECT_EQ(MatchMask(In(Col("s"), {Value{std::string("q")}})), "0000000000");
  EXPECT_EQ(MatchMask(In(Col("id"), {Value{int64_t{15}}, Value{int64_t{16}}})),
            "0100000000");
}

TEST_F(FragmentCanMatchTest, BooleanStructure) {
  // AND: lhs-first short circuit; an unsatisfiable side kills the fragment.
  EXPECT_EQ(MatchMask(And(Lt(Col("id"), Lit(int64_t{25})),
                          Ge(Col("v"), Lit(5.0)))),
            "0110000000");
  EXPECT_EQ(MatchMask(Or(Lt(Col("id"), Lit(int64_t{5})),
                         Gt(Col("id"), Lit(int64_t{95})))),
            "1000000001");
  EXPECT_EQ(MatchMask(Not(Lt(Col("id"), Lit(int64_t{1000})))), "0000000000");
  EXPECT_EQ(MatchMask(Not(Lt(Col("id"), Lit(int64_t{25})))), "0011111111");
}

TEST_F(FragmentCanMatchTest, NeverSkipsAwayAnAbort) {
  // A mixed string/numeric *ordered* comparison aborts when evaluated, so
  // an AND whose rhs is unsatisfiable must still scan (the kernel would
  // evaluate the aborting lhs on every row before touching the rhs)...
  EXPECT_EQ(MatchMask(And(Lt(Col("s"), Lit(int64_t{5})),
                          Gt(Col("id"), Lit(int64_t{1000})))),
            "1111111111");
  // ...while the mirrored AND may skip: its unsatisfiable lhs is evaluated
  // first and abort-free, leaving zero rows for the aborting rhs.
  EXPECT_EQ(MatchMask(And(Gt(Col("id"), Lit(int64_t{1000})),
                          Lt(Col("s"), Lit(int64_t{5})))),
            "0000000000");
  // Mixed ==/!= never abort and have constant value.
  EXPECT_EQ(MatchMask(Eq(Col("s"), Lit(int64_t{5}))), "0000000000");
  EXPECT_EQ(MatchMask(Ne(Col("s"), Lit(int64_t{5}))), "1111111111");
  // Arithmetic can abort (division) — never the basis of a skip.
  EXPECT_EQ(MatchMask(And(Gt(Div(Col("v"), Col("id")), Lit(int64_t{1000})),
                          Gt(Col("id"), Lit(int64_t{1000})))),
            "1111111111");
}

// ---------------------------------------------------------------------------
// Spill / reload.

Schema TrickySchema() {
  return Schema({{"i", ValueType::kInt},
                 {"d", ValueType::kDouble},
                 {"s", ValueType::kString}});
}

std::vector<Row> TrickyRows() {
  return {
      {Value{std::numeric_limits<int64_t>::min()}, Value{-0.0},
       Value{std::string()}},
      {Value{std::numeric_limits<int64_t>::max()},
       Value{std::numeric_limits<double>::quiet_NaN()}, Value{std::string("β")}},
      {Value{int64_t{0}}, Value{std::numeric_limits<double>::infinity()},
       Value{std::string("a")}},
      {Value{int64_t{7}}, Value{5e-324}, Value{std::string("a")}},
      {Value{int64_t{-7}}, Value{-std::numeric_limits<double>::infinity()},
       Value{std::string("zz")}},
  };
}

void ExpectBitIdenticalTables(const ColumnarTable& want,
                              const ColumnarTable& got) {
  ASSERT_EQ(want.num_rows(), got.num_rows());
  ASSERT_EQ(want.schema().NumColumns(), got.schema().NumColumns());
  for (size_t c = 0; c < want.schema().NumColumns(); ++c) {
    SCOPED_TRACE("column " + std::to_string(c));
    const Column& a = want.column(c);
    const Column& b = got.column(c);
    ASSERT_EQ(a.type, b.type);
    EXPECT_EQ(a.ints, b.ints);
    ASSERT_EQ(a.doubles.size(), b.doubles.size());
    for (size_t i = 0; i < a.doubles.size(); ++i) {
      EXPECT_EQ(Bits(a.doubles[i]), Bits(b.doubles[i])) << "row " << i;
    }
    EXPECT_EQ(a.codes, b.codes);
    ASSERT_EQ(a.dict == nullptr, b.dict == nullptr);
    if (a.dict != nullptr) {
      EXPECT_EQ(*a.dict, *b.dict);
    }
  }
}

TEST(FragmentSpillTest, RoundTripIsBitExact) {
  auto ct = ColumnarTable::Build(TrickySchema(), TrickyRows(), 2);
  const std::string path = ::testing::TempDir() + "upa_spill_roundtrip.bin";
  ASSERT_TRUE(ct->SpillTo(path).ok());

  // Reload under a different fragment size: payload identical, directory
  // recomputed for the new size.
  auto loaded = ColumnarTable::LoadSpill(path, TrickySchema(), 3);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectBitIdenticalTables(*ct, *loaded.value());
  EXPECT_EQ(loaded.value()->fragment_rows(), 3u);
  EXPECT_EQ(loaded.value()->fragments().size(), 2u);  // 3 + 2 rows
  EXPECT_EQ(loaded.value()->resident_bytes(), ct->resident_bytes());
  std::remove(path.c_str());
}

TEST(FragmentSpillTest, RejectsMissingAndCorruptFiles) {
  EXPECT_FALSE(
      ColumnarTable::LoadSpill("/nonexistent/upa.spill", TrickySchema()).ok());

  const std::string path = ::testing::TempDir() + "upa_spill_corrupt.bin";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("not a spill file", f);
  std::fclose(f);
  EXPECT_FALSE(ColumnarTable::LoadSpill(path, TrickySchema()).ok());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// BufferManager: budget, LRU eviction, spill-backed reload, failpoints.

Table MakeWideTable(const std::string& name, int64_t salt) {
  Schema schema({{"k", ValueType::kInt}, {"x", ValueType::kDouble}});
  std::vector<Row> rows;
  for (int64_t i = 0; i < 4000; ++i) {
    rows.push_back(
        {Value{i * salt}, Value{static_cast<double>(i) * 0.125 + salt}});
  }
  return Table(name, schema, rows);
}

TEST(BufferManagerTest, BudgetEvictsLruAndPeakStaysBounded) {
  GlobalConfigGuard guard;
  BufferManager& mgr = BufferManager::Instance();

  Table t1 = MakeWideTable("t1", 3);
  Table t2 = MakeWideTable("t2", 5);
  const size_t bytes = t1.Columnar()->resident_bytes();
  t1.ReleaseCaches();

  // Budget fits one table (plus slack) but not two.
  mgr.Configure({.budget_bytes = bytes + bytes / 2, .spill_dir = ""});
  t1.Columnar();
  t2.Columnar();  // must evict t1 (LRU, unpinned)
  BufferManager::Stats st = mgr.stats();
  EXPECT_GE(st.evictions, 1u);
  EXPECT_EQ(st.over_budget_admissions, 0u);
  EXPECT_LE(st.resident_bytes, st.budget_bytes);
  EXPECT_LE(st.peak_resident_bytes, st.budget_bytes);
  EXPECT_EQ(st.spills_written, 0u);  // no spill dir: drop + rebuild

  // t1 transparently rebuilds — and evicts t2 in turn.
  EXPECT_EQ(t1.Columnar()->num_rows(), 4000u);
  st = mgr.stats();
  EXPECT_GE(st.evictions, 2u);
  EXPECT_LE(st.peak_resident_bytes, st.budget_bytes);
}

TEST(BufferManagerTest, PinnedTablesAreNeverEvicted) {
  GlobalConfigGuard guard;
  BufferManager& mgr = BufferManager::Instance();

  Table t1 = MakeWideTable("t1", 3);
  Table t2 = MakeWideTable("t2", 5);
  const size_t bytes = t1.Columnar()->resident_bytes();
  t1.ReleaseCaches();

  mgr.Configure({.budget_bytes = bytes + bytes / 2, .spill_dir = ""});
  std::shared_ptr<const ColumnarTable> pin = t1.Columnar();
  t2.Columnar();  // t1 is pinned → no victim → over budget
  BufferManager::Stats st = mgr.stats();
  EXPECT_EQ(st.evictions, 0u);
  EXPECT_GE(st.over_budget_admissions, 1u);
  EXPECT_GT(st.resident_bytes, st.budget_bytes);
  // The pinned form is still the cached one.
  EXPECT_EQ(pin.get(), t1.Columnar().get());
}

TEST(BufferManagerTest, EvictionSpillsAndReloadsBitIdentically) {
  GlobalConfigGuard guard;
  BufferManager& mgr = BufferManager::Instance();

  Table t1("tricky", TrickySchema(), TrickyRows());
  Table t2 = MakeWideTable("big", 7);
  const size_t bytes2 = t2.Columnar()->resident_bytes();
  t2.ReleaseCaches();

  auto baseline = ColumnarTable::Build(TrickySchema(), TrickyRows());

  mgr.Configure({.budget_bytes = bytes2, .spill_dir = ::testing::TempDir()});
  t1.Columnar();
  t2.Columnar();  // evicts t1 → spill written
  BufferManager::Stats st = mgr.stats();
  EXPECT_GE(st.evictions, 1u);
  EXPECT_GE(st.spills_written, 1u);

  std::shared_ptr<const ColumnarTable> reloaded = t1.Columnar();
  EXPECT_GE(mgr.stats().spill_loads, 1u);
  ExpectBitIdenticalTables(*baseline, *reloaded);
}

TEST(BufferManagerTest, SpillWriteFailureFallsBackToRebuild) {
  GlobalConfigGuard guard;
  BufferManager& mgr = BufferManager::Instance();
  Failpoints::Instance().Activate("bufmgr/spill_write", "error(internal)");

  Table t1("tricky", TrickySchema(), TrickyRows());
  Table t2 = MakeWideTable("big", 7);
  const size_t bytes2 = t2.Columnar()->resident_bytes();
  t2.ReleaseCaches();

  auto baseline = ColumnarTable::Build(TrickySchema(), TrickyRows());

  mgr.Configure({.budget_bytes = bytes2, .spill_dir = ::testing::TempDir()});
  t1.Columnar();
  t2.Columnar();  // eviction's spill write fails → drop without a spill
  BufferManager::Stats st = mgr.stats();
  EXPECT_GE(st.evictions, 1u);
  EXPECT_EQ(st.spills_written, 0u);
  Failpoints::Instance().Deactivate("bufmgr/spill_write");

  // Rebuild path (no spill on disk) still reproduces the exact bytes.
  std::shared_ptr<const ColumnarTable> rebuilt = t1.Columnar();
  EXPECT_EQ(mgr.stats().spill_loads, 0u);
  ExpectBitIdenticalTables(*baseline, *rebuilt);
}

// ---------------------------------------------------------------------------
// Spill namespace: two shard processes sharing a spill dir. Table uids
// restart at 1 in every process, so without pid+nonce qualification shard
// B's spill for ITS table 1 would silently overwrite shard A's — and A
// would later reload B's bytes as its own table.

/// Restores the real pid/nonce on exit so later tests (and their sweeps)
/// see this process as the live owner of its own spill files.
struct SpillNamespaceGuard {
  ~SpillNamespaceGuard() {
    BufferManager::Instance().SetSpillNamespaceForTest(
        static_cast<uint64_t>(::getpid()), 0x5eed5eed5eed5eedULL);
  }
};

TEST(BufferManagerSpillNamespaceTest, SameUidInTwoProcessesMapsToTwoFiles) {
  SpillNamespaceGuard guard;
  BufferManager& mgr = BufferManager::Instance();

  mgr.SetSpillNamespaceForTest(/*pid=*/1111, /*nonce=*/0xaaaa);
  const std::string shard_a = mgr.SpillFileName(/*uid=*/1);
  mgr.SetSpillNamespaceForTest(/*pid=*/2222, /*nonce=*/0xbbbb);
  const std::string shard_b = mgr.SpillFileName(/*uid=*/1);

  EXPECT_NE(shard_a, shard_b);
  EXPECT_NE(shard_a.find("1111"), std::string::npos);
  EXPECT_NE(shard_b.find("2222"), std::string::npos);

  // Same pid recycled after a crash, fresh nonce: still distinct, so a
  // restarted shard cannot adopt its dead predecessor's half-written file.
  mgr.SetSpillNamespaceForTest(/*pid=*/1111, /*nonce=*/0xcccc);
  EXPECT_NE(mgr.SpillFileName(1), shard_a);
}

TEST(BufferManagerSpillNamespaceTest, SweepRemovesDeadOwnersKeepsLiveOnes) {
  namespace fs = std::filesystem;
  const std::string dir = ::testing::TempDir() + "upa_sweep_test";
  fs::remove_all(dir);
  fs::create_directories(dir);
  auto touch = [&](const std::string& name) {
    std::FILE* f = std::fopen((dir + "/" + name).c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fclose(f);
  };

  // A genuinely dead pid: fork a child that exits immediately and reap it.
  pid_t dead = ::fork();
  ASSERT_GE(dead, 0);
  if (dead == 0) ::_exit(0);
  ASSERT_EQ(::waitpid(dead, nullptr, 0), dead);

  const std::string live =
      "upa-spill-" + std::to_string(::getpid()) + "-00ff-1.colspill";
  // pid 1 is alive but foreign (kill probe → EPERM): must be kept.
  const std::string foreign = "upa-spill-1-00ff-1.colspill";
  const std::string stale =
      "upa-spill-" + std::to_string(dead) + "-00ff-1.colspill";
  const std::string legacy = "upa-spill-1.colspill";  // pre-namespace format
  const std::string unrelated = "not-a-spill.txt";
  touch(live);
  touch(foreign);
  touch(stale);
  touch(legacy);
  touch(unrelated);

  EXPECT_EQ(BufferManager::SweepStaleSpills(dir), 2u);
  EXPECT_TRUE(fs::exists(dir + "/" + live));
  EXPECT_TRUE(fs::exists(dir + "/" + foreign));
  EXPECT_FALSE(fs::exists(dir + "/" + stale));
  EXPECT_FALSE(fs::exists(dir + "/" + legacy));
  EXPECT_TRUE(fs::exists(dir + "/" + unrelated));
  fs::remove_all(dir);
}

TEST(BufferManagerSpillNamespaceTest,
     TwoNamespacesSharingASpillDirNeverCollide) {
  GlobalConfigGuard config_guard;
  SpillNamespaceGuard ns_guard;
  BufferManager& mgr = BufferManager::Instance();
  const std::string dir = ::testing::TempDir() + "upa_shared_spill";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  auto baseline = ColumnarTable::Build(TrickySchema(), TrickyRows());

  // "Shard A": spill the tricky table by evicting it under a tight budget.
  mgr.SetSpillNamespaceForTest(static_cast<uint64_t>(::getpid()), 0xa);
  Table t1("tricky", TrickySchema(), TrickyRows());
  Table t2 = MakeWideTable("big", 7);
  const size_t bytes2 = t2.Columnar()->resident_bytes();
  t2.ReleaseCaches();
  mgr.Configure({.budget_bytes = bytes2, .spill_dir = dir});
  t1.Columnar();
  t2.Columnar();  // evicts t1 → spill under namespace A
  ASSERT_GE(mgr.stats().spills_written, 1u);

  // "Shard B" writes its own uid-colliding spill into the same dir; with
  // per-process namespacing the filenames differ, so A's file is intact.
  mgr.SetSpillNamespaceForTest(static_cast<uint64_t>(::getpid()), 0xb);
  std::FILE* f = std::fopen((dir + "/" + mgr.SpillFileName(1)).c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("shard B's unrelated payload", f);
  std::fclose(f);
  mgr.SetSpillNamespaceForTest(static_cast<uint64_t>(::getpid()), 0xa);

  // A's reload must see A's bytes, bit for bit.
  std::shared_ptr<const ColumnarTable> reloaded = t1.Columnar();
  EXPECT_GE(mgr.stats().spill_loads, 1u);
  ExpectBitIdenticalTables(*baseline, *reloaded);
  std::filesystem::remove_all(dir);
}

TEST(BufferManagerTest, ReleaseCachesDropsResidentBytes) {
  GlobalConfigGuard guard;
  BufferManager& mgr = BufferManager::Instance();
  mgr.Configure({.budget_bytes = 0, .spill_dir = ""});

  Table t = MakeWideTable("t", 2);
  EXPECT_EQ(t.CachedBytes(), 0u);
  const size_t before = mgr.stats().resident_bytes;
  const size_t bytes = t.Columnar()->resident_bytes();
  EXPECT_GE(t.CachedBytes(), bytes);
  EXPECT_EQ(mgr.stats().resident_bytes, before + bytes);
  t.ReleaseCaches();
  EXPECT_EQ(t.CachedBytes(), 0u);
  EXPECT_EQ(mgr.stats().resident_bytes, before);
}

// ---------------------------------------------------------------------------
// Zipf-skew differential: fragment sizes × thread counts, bit-identical.

struct ZipfData {
  Schema fact_schema{{{"f_key", ValueType::kInt},
                      {"f_val", ValueType::kDouble},
                      {"f_cat", ValueType::kString}}};
  Schema dim_schema{
      {{"d_key", ValueType::kInt}, {"d_weight", ValueType::kDouble}}};
  std::vector<Row> fact_rows;
  std::vector<Row> dim_rows;

  ZipfData() {
    // Key k appears ~2000/(k+1) times and rows are emitted in key order, so
    // early fragments carry enormous join fan-out and late ones almost
    // none — the skew morsel scheduling exists for, and wildly uneven
    // per-fragment selectivities for the zone maps.
    constexpr int64_t kKeys = 40;
    for (int64_t k = 0; k < kKeys; ++k) {
      const int64_t copies = std::max<int64_t>(1, 2000 / (k + 1));
      for (int64_t i = 0; i < copies; ++i) {
        fact_rows.push_back(
            {Value{k}, Value{0.25 * static_cast<double>((i * 7 + k) % 101)},
             Value{std::string(k % 5 == 0 ? "hot" : "cold")}});
      }
      dim_rows.push_back(
          {Value{k}, Value{1.0 / static_cast<double>(k + 1)}});
    }
  }
};

struct ZipfCase {
  std::string label;
  PlanPtr plan;
  bool private_shapes = false;
};

std::vector<ZipfCase> ZipfCases() {
  std::vector<ZipfCase> cases;
  cases.push_back(
      {"join-filter-sum",
       SumPlan(FilterPlan(JoinPlan(ScanPlan("fact"), ScanPlan("dim"), "f_key",
                                   "d_key"),
                          And(Lt(Col("f_val"), Lit(12.0)),
                              Gt(Col("d_weight"), Lit(0.05)))),
               Mul(Col("f_val"), Col("d_weight"))),
       true});
  cases.push_back({"string-filter-count",
                   CountPlan(FilterPlan(ScanPlan("fact"),
                                        Eq(Col("f_cat"), Lit("hot")))),
                   true});
  // Rows are key-ordered, so this prunes almost every fragment at size 7.
  cases.push_back({"skip-heavy-count",
                   CountPlan(FilterPlan(ScanPlan("fact"),
                                        Lt(Col("f_key"), Lit(int64_t{2})))),
                   false});
  cases.push_back(
      {"avg", AvgPlan(ScanPlan("fact"), Add(Col("f_val"), Col("f_key"))),
       false});
  return cases;
}

void ExpectSameResult(const ExecResult& want, const ExecResult& got) {
  EXPECT_EQ(Bits(want.output), Bits(got.output))
      << want.output << " vs " << got.output;
  EXPECT_EQ(want.result_rows, got.result_rows);
  ASSERT_EQ(want.partition_outputs.size(), got.partition_outputs.size());
  for (size_t p = 0; p < want.partition_outputs.size(); ++p) {
    EXPECT_EQ(Bits(want.partition_outputs[p]), Bits(got.partition_outputs[p]))
        << "partition " << p;
  }
  ASSERT_EQ(want.contributions.size(), got.contributions.size());
  for (const auto& [idx, value] : want.contributions) {
    auto it = got.contributions.find(idx);
    ASSERT_NE(it, got.contributions.end()) << "contribution " << idx;
    EXPECT_EQ(Bits(value), Bits(it->second)) << "contribution " << idx;
  }
}

TEST(ColumnarDifferentialFragmentTest, ZipfSkewBitIdenticalAcrossLayouts) {
  GlobalConfigGuard guard;
  ZipfData data;
  Rng rng = Rng::ForStream(13, "fragment/zipf");
  std::vector<size_t> excluded =
      rng.SampleWithoutReplacement(data.fact_rows.size(), 60);

  // Option shapes per case: plain, contributions+partitions, exclusions.
  auto shapes = [&](const ZipfCase& c) {
    std::vector<std::pair<std::string, ExecOptions>> out;
    out.push_back({"plain", ExecOptions{}});
    if (c.private_shapes) {
      ExecOptions contrib;
      contrib.private_table = "fact";
      contrib.track_contributions = true;
      contrib.partitions = 3;
      out.push_back({"contrib", contrib});
      ExecOptions sprime;
      sprime.private_table = "fact";
      sprime.exclude_rows = &excluded;
      sprime.partitions = 2;
      out.push_back({"sprime", sprime});
    }
    return out;
  };

  // Oracle: row engine, 1 thread, default fragmentation (irrelevant to it).
  std::vector<ZipfCase> cases = ZipfCases();
  std::map<std::string, ExecResult> oracle;
  {
    Table fact("fact", data.fact_schema, data.fact_rows);
    Table dim("dim", data.dim_schema, data.dim_rows);
    Catalog catalog{{"fact", &fact}, {"dim", &dim}};
    engine::ExecContext ctx(
        engine::ExecConfig{.threads = 1, .default_partitions = 1});
    PlanExecutor exec(&ctx, &catalog);
    for (const ZipfCase& c : cases) {
      for (auto& [shape, opts] : shapes(c)) {
        ExecOptions o = opts;
        o.engine = ExecEngine::kRowOracle;
        Result<ExecResult> r = exec.Execute(c.plan, o);
        ASSERT_TRUE(r.ok()) << c.label << ": " << r.status().ToString();
        oracle[c.label + "/" + shape] = std::move(r.value());
      }
    }
  }

  for (size_t frag : {size_t{7}, size_t{64} * 1024}) {
    SetDefaultFragmentRows(frag);
    // Fresh tables per fragment size: a Table memoizes its columnar form,
    // and the test's whole point is re-fragmenting the data.
    Table fact("fact", data.fact_schema, data.fact_rows);
    Table dim("dim", data.dim_schema, data.dim_rows);
    Catalog catalog{{"fact", &fact}, {"dim", &dim}};
    for (size_t threads : {size_t{1}, size_t{4}}) {
      engine::ExecContext ctx(engine::ExecConfig{
          .threads = threads, .default_partitions = threads});
      PlanExecutor exec(&ctx, &catalog);
      for (const ZipfCase& c : cases) {
        for (auto& [shape, opts] : shapes(c)) {
          SCOPED_TRACE(c.label + "/" + shape + " frag=" +
                       std::to_string(frag) +
                       " threads=" + std::to_string(threads));
          ExecOptions o = opts;
          o.engine = ExecEngine::kColumnar;
          Result<ExecResult> r = exec.Execute(c.plan, o);
          ASSERT_TRUE(r.ok()) << r.status().ToString();
          ExpectSameResult(oracle[c.label + "/" + shape], r.value());
        }
      }
    }
  }
}

TEST(ColumnarDifferentialFragmentTest, SkipCountersFire) {
  GlobalConfigGuard guard;
  SetDefaultFragmentRows(10);
  Table t("t", ThreeColSchema(), ThreeColRows());
  Catalog catalog{{"t", &t}};
  engine::ExecContext ctx(
      engine::ExecConfig{.threads = 2, .default_partitions = 2});
  PlanExecutor exec(&ctx, &catalog);

  ExecOptions opts;
  opts.engine = ExecEngine::kColumnar;
  PlanPtr plan =
      CountPlan(FilterPlan(ScanPlan("t"), Lt(Col("id"), Lit(int64_t{25}))));
  Result<ExecResult> r = exec.Execute(plan, opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().output, 25.0);

  engine::MetricsSnapshot snap = ctx.metrics().Snapshot();
  EXPECT_EQ(snap.counters["columnar/fragments_scanned"], 3u);
  EXPECT_EQ(snap.counters["columnar/fragments_skipped"], 7u);
  // This shape takes the fused single-pass kernel; its morsel phase
  // surfaces the duration spread + imbalance gauge under its own name.
  EXPECT_GE(snap.latency["morsel/columnar/fused"].count, 1u);
}

TEST(ColumnarDifferentialFragmentTest, SkipCountersFireInterpreted) {
  GlobalConfigGuard guard;
  SetDefaultFragmentRows(10);
  Table t("t", ThreeColSchema(), ThreeColRows());
  Catalog catalog{{"t", &t}};
  engine::ExecContext ctx(
      engine::ExecConfig{.threads = 2, .default_partitions = 2});

  ExecOptions opts;
  opts.engine = ExecEngine::kColumnar;
  // The interpreted path must preserve the zone-map skip counts
  // bit-for-bit (fused skips on the conjoined predicate, which for a
  // single conjunct is the same predicate the interpreted scan consults).
  PlanPtr plan =
      CountPlan(FilterPlan(ScanPlan("t"), Lt(Col("id"), Lit(int64_t{25}))));
  Result<ExecResult> r = ExecuteColumnarInterpreted(&ctx, &catalog, plan, opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().output, 25.0);

  engine::MetricsSnapshot snap = ctx.metrics().Snapshot();
  EXPECT_EQ(snap.counters["columnar/fragments_scanned"], 3u);
  EXPECT_EQ(snap.counters["columnar/fragments_skipped"], 7u);
  EXPECT_GE(snap.latency["morsel/columnar/filter"].count, 1u);
}

}  // namespace
}  // namespace upa::rel
