// Fragmented columnar storage: fragment directory + zone maps and predicate
// skip analysis (FragmentCanMatch).
//
// The core contract under test: fragment size must never change a single
// output bit. The Zipf-skew differential at the bottom runs real plans over
// a deliberately skewed dataset across fragment sizes {7, 64K} × thread
// counts {1, 4} and compares every output, partition output and
// contribution bit-for-bit against the row oracle (suite name matches the
// CI TSan filter).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "common/rng.h"
#include "engine/context.h"
#include "relational/columnar.h"
#include "relational/executor.h"
#include "relational/expr.h"
#include "relational/kernels.h"
#include "relational/plan.h"
#include "relational/table.h"

namespace upa::rel {
namespace {

uint64_t Bits(double d) { return std::bit_cast<uint64_t>(d); }

/// Restores the global fragment-size knob on scope exit so tests cannot
/// leak configuration into each other.
struct GlobalConfigGuard {
  size_t fragment_rows = DefaultFragmentRows();
  ~GlobalConfigGuard() { SetDefaultFragmentRows(fragment_rows); }
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
  for (const FragmentInfo& f : ct->fragments()) {
    EXPECT_EQ(f.begin_row, expect_begin);
    EXPECT_GT(f.end_row, f.begin_row);
    ASSERT_EQ(f.cols.size(), 3u);
    expect_begin = f.end_row;
  }
  EXPECT_EQ(expect_begin, 100u);

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
  ASSERT_EQ(want.sample_contributions.size(), got.sample_contributions.size());
  for (size_t k = 0; k < want.sample_contributions.size(); ++k) {
    EXPECT_EQ(Bits(want.sample_contributions[k]),
              Bits(got.sample_contributions[k]))
        << "sample slot " << k;
  }
}

TEST(ColumnarDifferentialFragmentTest, ZipfSkewBitIdenticalAcrossLayouts) {
  GlobalConfigGuard guard;
  ZipfData data;
  Rng rng = Rng::ForStream(13, "fragment/zipf");
  std::vector<size_t> excluded =
      rng.SampleWithoutReplacement(data.fact_rows.size(), 60);
  std::vector<size_t> all(data.fact_rows.size());
  std::iota(all.begin(), all.end(), size_t{0});

  // Option shapes per case: plain, and the one pass with every record
  // sampled and with the excluded set sampled.
  auto shapes = [&](const ZipfCase& c) {
    std::vector<std::pair<std::string, ExecOptions>> out;
    out.push_back({"plain", ExecOptions{}});
    if (c.private_shapes) {
      ExecOptions contrib;
      contrib.private_table = "fact";
      contrib.sample_rows = &all;
      contrib.partitions = 3;
      out.push_back({"contrib", contrib});
      ExecOptions sprime;
      sprime.private_table = "fact";
      sprime.sample_rows = &excluded;
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
