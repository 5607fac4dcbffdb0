// Fused single-pass kernels (relational/fused.h): edge cases and the
// fused-vs-interpreted-vs-row-oracle differential.
//
// The contract under test: fusion is purely physical. For every fusible
// Aggregate(Filter*(Scan)) chain and every aggregate over one join of two
// such chains, the fused kernel's output must match the interpreted
// columnar engine (ExecuteColumnarInterpreted, the unfused baseline) and
// the row oracle bit-for-bit — including NaN/±inf propagation through
// comparisons and exact sums, empty selections, dictionary-code boundary
// literals, dense, sparse and duplicate join keys and every provenance
// option — across thread counts (suite names match the CI sanitizer
// filters).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/exact_sum.h"
#include "common/rng.h"
#include "engine/cache.h"
#include "engine/context.h"
#include "relational/columnar.h"
#include "relational/executor.h"
#include "relational/expr.h"
#include "relational/fused.h"
#include "relational/optimizer.h"
#include "relational/plan.h"
#include "relational/sql_parser.h"
#include "relational/table.h"
#include "tpch/generator.h"

namespace upa::rel {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

uint64_t Bits(double d) { return std::bit_cast<uint64_t>(d); }

/// Runs `plan` three ways — row oracle, interpreted columnar, fused
/// columnar — and asserts bit-identical outputs (or identical error
/// codes). Returns the oracle result for further assertions.
Result<ExecResult> ExpectTriEqual(engine::ExecContext* ctx,
                                  const Catalog& catalog, const PlanPtr& plan,
                                  const std::string& what) {
  PlanExecutor exec(ctx, &catalog);
  ExecOptions oracle_opts;
  oracle_opts.engine = ExecEngine::kRowOracle;
  Result<ExecResult> oracle = exec.Execute(plan, oracle_opts);

  ExecOptions col_opts;
  col_opts.engine = ExecEngine::kColumnar;
  Result<ExecResult> interp =
      ExecuteColumnarInterpreted(ctx, &catalog, plan, col_opts);
  Result<ExecResult> fused = exec.Execute(plan, col_opts);

  EXPECT_EQ(oracle.ok(), interp.ok()) << what;
  EXPECT_EQ(oracle.ok(), fused.ok()) << what;
  if (!oracle.ok()) {
    if (interp.ok() || fused.ok()) return oracle;
    EXPECT_EQ(oracle.status().code(), interp.status().code()) << what;
    EXPECT_EQ(oracle.status().code(), fused.status().code()) << what;
    return oracle;
  }
  if (!interp.ok() || !fused.ok()) return oracle;
  EXPECT_EQ(Bits(oracle.value().output), Bits(interp.value().output)) << what;
  EXPECT_EQ(Bits(oracle.value().output), Bits(fused.value().output)) << what;
  EXPECT_EQ(oracle.value().result_rows, fused.value().result_rows) << what;
  return oracle;
}

Schema NumStrSchema() {
  return Schema({{"id", ValueType::kInt},
                 {"v", ValueType::kDouble},
                 {"s", ValueType::kString}});
}

/// 16 rows mixing NaN, ±inf, signed zeros and ordinary magnitudes; strings
/// drawn from {apple, cherry, mango, zebra} (note: no literal below
/// "apple" or above "zebra" appears in the data).
std::vector<Row> SpecialRows() {
  const double vals[] = {kNan, -kInf, kInf, -0.0, 0.0, 1.5, -2.25, 1e300,
                         -1e300, 3.0, kNan, 7.5, kInf, -8.125, 42.0, -1.0};
  const char* strs[] = {"apple", "cherry", "mango", "zebra"};
  std::vector<Row> rows;
  for (int64_t i = 0; i < 16; ++i) {
    rows.push_back({Value{i}, Value{vals[i]}, Value{std::string(strs[i % 4])}});
  }
  return rows;
}

TEST(FusedKernelTest, NanAndInfCompareAndSumBitIdentical) {
  Table t("t", NumStrSchema(), SpecialRows());
  Catalog catalog{{"t", &t}};
  engine::ExecContext ctx(
      engine::ExecConfig{.threads = 2, .default_partitions = 2});

  // Every comparison op, with NaN/±inf on both sides of the predicate and
  // inside the summed column. The engine's Compare(NaN, y) == 0 contract
  // makes NaN "equal" to everything — the fused kernels must replicate
  // that exactly, not IEEE semantics.
  std::vector<ExprPtr> preds = {
      Lt(Col("v"), Lit(1.0)),      Le(Col("v"), Lit(0.0)),
      Gt(Col("v"), Lit(-1.0)),     Ge(Col("v"), Lit(kInf)),
      Eq(Col("v"), Lit(0.0)),      Ne(Col("v"), Lit(1.5)),
      Lt(Lit(0.0), Col("v")),      Ge(Lit(1.5), Col("v")),
      Eq(Col("v"), Lit(-kInf)),    Gt(Col("v"), Lit(-kInf)),
      Lt(Col("id"), Lit(int64_t{9})), Ge(Col("id"), Lit(7.5)),
  };
  for (size_t i = 0; i < preds.size(); ++i) {
    PlanPtr filtered = FilterPlan(ScanPlan("t"), preds[i]);
    ExpectTriEqual(&ctx, catalog, CountPlan(filtered),
                   "count pred#" + std::to_string(i));
    ExpectTriEqual(&ctx, catalog, SumPlan(filtered, Col("v")),
                   "sum pred#" + std::to_string(i));
    ExpectTriEqual(&ctx, catalog, MinPlan(filtered, Col("v")),
                   "min pred#" + std::to_string(i));
    ExpectTriEqual(&ctx, catalog, MaxPlan(filtered, Col("v")),
                   "max pred#" + std::to_string(i));
  }
}

TEST(FusedKernelTest, EmptySelectionShortCircuits) {
  Table t("t", NumStrSchema(), SpecialRows());
  Catalog catalog{{"t", &t}};
  engine::ExecContext ctx(
      engine::ExecConfig{.threads = 2, .default_partitions = 2});

  // First conjunct kills every row; the chain must stop there. Count/Sum
  // over the empty selection are exact zeros; Avg/Min/Max fail with
  // FAILED_PRECONDITION on all three paths.
  PlanPtr empty = FilterPlan(
      FilterPlan(ScanPlan("t"), Lt(Col("id"), Lit(int64_t{-1}))),
      Gt(Col("v"), Lit(0.0)));
  Result<ExecResult> count =
      ExpectTriEqual(&ctx, catalog, CountPlan(empty), "empty count");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.value().output, 0.0);
  ExpectTriEqual(&ctx, catalog, SumPlan(empty, Col("v")), "empty sum");
  Result<ExecResult> avg =
      ExpectTriEqual(&ctx, catalog, AvgPlan(empty, Col("v")), "empty avg");
  EXPECT_FALSE(avg.ok());
  EXPECT_EQ(avg.status().code(), StatusCode::kFailedPrecondition);
  ExpectTriEqual(&ctx, catalog, MinPlan(empty, Col("v")), "empty min");
  ExpectTriEqual(&ctx, catalog, MaxPlan(empty, Col("v")), "empty max");
}

TEST(FusedKernelTest, DictCodeBoundaryLiterals) {
  Table t("t", NumStrSchema(), SpecialRows());
  Catalog catalog{{"t", &t}};
  engine::ExecContext ctx(
      engine::ExecConfig{.threads = 2, .default_partitions = 2});

  // Literals below all codes, equal to the lowest/highest, between two
  // codes (absent), and above all codes — for every comparison op and both
  // operand orders. These exercise the [lit_lb, lit_ub) pre-resolution.
  const char* lits[] = {"aaa", "apple", "banana", "cherry", "mango",
                        "watermelon", "zebra", "zzz"};
  size_t case_id = 0;
  for (const char* lit : lits) {
    for (auto mk : {&Lt, &Le, &Gt, &Ge, &Eq, &Ne}) {
      PlanPtr f1 = FilterPlan(ScanPlan("t"), (*mk)(Col("s"), Lit(lit)));
      PlanPtr f2 = FilterPlan(ScanPlan("t"), (*mk)(Lit(lit), Col("s")));
      ExpectTriEqual(&ctx, catalog, CountPlan(f1),
                     "str count#" + std::to_string(case_id));
      ExpectTriEqual(&ctx, catalog, SumPlan(f2, Col("v")),
                     "str sum#" + std::to_string(case_id));
      ++case_id;
    }
  }
}

TEST(FusedKernelTest, GenericFallbacksMatch) {
  Table t("t", NumStrSchema(), SpecialRows());
  Catalog catalog{{"t", &t}};
  engine::ExecContext ctx(
      engine::ExecConfig{.threads = 2, .default_partitions = 2});

  // Predicates the specialized kernels decline (NOT / OR / IN / col-col)
  // fall back to the generic compiled-expression conjunct; weights beyond
  // col and col*lit fall back to the generic projection. All still fused
  // into one pass, all still bit-identical.
  PlanPtr f = FilterPlan(
      FilterPlan(ScanPlan("t"),
                 Or(Lt(Col("v"), Lit(0.0)), Eq(Col("s"), Lit("zebra")))),
      Not(In(Col("id"), {Value{int64_t{3}}, Value{int64_t{7}}})));
  ExpectTriEqual(&ctx, catalog, CountPlan(f), "generic count");
  ExpectTriEqual(&ctx, catalog, SumPlan(f, Mul(Col("v"), Col("v"))),
                 "generic col*col");
  ExpectTriEqual(&ctx, catalog, SumPlan(f, Mul(Lit(2.5), Col("v"))),
                 "generic lit*col");
  ExpectTriEqual(&ctx, catalog,
                 SumPlan(f, Add(Mul(Col("v"), Lit(0.5)), Col("id"))),
                 "generic arith");
  ExpectTriEqual(&ctx, catalog, AvgPlan(f, Col("v")), "generic avg");
}

TEST(FusedKernelTest, ThreadSweepBitIdentical) {
  Table t("t", NumStrSchema(), SpecialRows());
  Catalog catalog{{"t", &t}};

  PlanPtr plan = SumPlan(
      FilterPlan(FilterPlan(ScanPlan("t"), Ge(Col("v"), Lit(-kInf))),
                 Ne(Col("s"), Lit("cherry"))),
      Mul(Col("v"), Lit(2.0)));

  // The one provenance pass rides the same sweep: sampled rows go to their
  // slots, the rest to three partition sums, through the dense kernels.
  const std::vector<size_t> sample = {0, 2, 5, 6, 11, 15};
  ExecOptions pass;
  pass.private_table = "t";
  pass.sample_rows = &sample;
  pass.partitions = 3;

  // Baselines once, then sweep thread counts.
  engine::ExecContext base_ctx(
      engine::ExecConfig{.threads = 1, .default_partitions = 1});
  ExecOptions opts;
  opts.engine = ExecEngine::kRowOracle;
  Result<ExecResult> base = PlanExecutor(&base_ctx, &catalog).Execute(plan, opts);
  ASSERT_TRUE(base.ok());
  pass.engine = ExecEngine::kRowOracle;
  Result<ExecResult> base_pass =
      PlanExecutor(&base_ctx, &catalog).Execute(plan, pass);
  ASSERT_TRUE(base_pass.ok()) << base_pass.status().ToString();
  EXPECT_EQ(Bits(base.value().output), Bits(base_pass.value().output));

  for (size_t threads : {size_t{1}, size_t{4}}) {
    engine::ExecContext ctx(
        engine::ExecConfig{.threads = threads, .default_partitions = threads});
    ExecOptions col;
    col.engine = ExecEngine::kColumnar;
    Result<ExecResult> fused = PlanExecutor(&ctx, &catalog).Execute(plan, col);
    ASSERT_TRUE(fused.ok()) << fused.status().ToString();
    EXPECT_EQ(Bits(base.value().output), Bits(fused.value().output))
        << "threads=" << threads;

    pass.engine = ExecEngine::kColumnar;
    Result<ExecResult> fused_pass =
        PlanExecutor(&ctx, &catalog).Execute(plan, pass);
    ASSERT_TRUE(fused_pass.ok()) << fused_pass.status().ToString();
    const ExecResult& want = base_pass.value();
    const ExecResult& got = fused_pass.value();
    EXPECT_EQ(Bits(want.output), Bits(got.output))
        << "one pass threads=" << threads;
    EXPECT_EQ(want.result_rows, got.result_rows);
    ASSERT_EQ(want.partition_outputs.size(), got.partition_outputs.size());
    for (size_t p = 0; p < want.partition_outputs.size(); ++p) {
      EXPECT_EQ(Bits(want.partition_outputs[p]), Bits(got.partition_outputs[p]))
          << "partition " << p << " threads=" << threads;
    }
    ASSERT_EQ(got.sample_contributions.size(), sample.size());
    for (size_t k = 0; k < sample.size(); ++k) {
      EXPECT_EQ(Bits(want.sample_contributions[k]),
                Bits(got.sample_contributions[k]))
          << "slot " << k << " threads=" << threads;
    }
  }
}

// ---------------------------------------------------------------------------
// Aggregates over one join of two chains.

/// Every field a pass reports, as bits: output, result_rows, the partition
/// outputs and totals, and the sample slots.
std::vector<uint64_t> AllBits(const ExecResult& r) {
  std::vector<uint64_t> out = {Bits(r.output), r.result_rows};
  for (double d : r.partition_outputs) out.push_back(Bits(d));
  for (const ExactSum& t : r.partition_totals) out.push_back(Bits(t.Round()));
  for (double d : r.sample_contributions) out.push_back(Bits(d));
  return out;
}

/// The build-side candidate: 24 rows whose keys, drawn from `keys`, may be
/// dense, sparse or repeated; `av` mixes NaN, ±inf and signed zeros.
Table BuildTable(const std::vector<int64_t>& keys) {
  const double av[] = {1.5, -0.0, kInf, 2.0, kNan, 0.0, -3.25, 1e300};
  std::vector<Row> rows;
  for (size_t i = 0; i < keys.size(); ++i) {
    rows.push_back({Value{keys[i]}, Value{av[i % 8]},
                    Value{std::string(i % 3 == 0 ? "x" : "y")}});
  }
  return Table("a", Schema({{"a_key", ValueType::kInt},
                            {"a_v", ValueType::kDouble},
                            {"a_s", ValueType::kString}}),
               std::move(rows));
}

/// The private probe side: 5,000 rows (two kernel batches), keys cycling
/// over [-20, 60) so some rows match nothing.
std::vector<Row> ProbeRows(int64_t shift) {
  const double bv[] = {0.5, -0.0, 7.0, -kInf, 0.0, kNan, 2.5, -1.0, 1e-300};
  std::vector<Row> rows;
  for (int64_t i = 0; i < 5000; ++i) {
    rows.push_back({Value{(i * 7 + shift) % 80 - 20}, Value{bv[i % 9]},
                    Value{i}});
  }
  return rows;
}

Schema ProbeSchema() {
  return Schema({{"b_key", ValueType::kInt},
                 {"b_v", ValueType::kDouble},
                 {"b_id", ValueType::kInt}});
}

/// Runs `plan` under `options` on the row oracle, the interpreted columnar
/// path and the fused one (ExecuteColumnar, and the executor, whose one
/// pass may answer from the S′ memo), and expects every bit and status to
/// agree.
void ExpectJoinEqual(engine::ExecContext* ctx, const PlanExecutor& exec,
                     const Catalog& catalog, const PlanPtr& plan,
                     ExecOptions options, const std::string& what) {
  SCOPED_TRACE(what);
  options.engine = ExecEngine::kRowOracle;
  const Result<ExecResult> oracle = exec.Execute(plan, options);
  options.engine = ExecEngine::kColumnar;
  const Result<ExecResult> interp =
      ExecuteColumnarInterpreted(ctx, &catalog, plan, options);
  const Result<ExecResult> fused = ExecuteColumnar(ctx, &catalog, plan, options);
  const Result<ExecResult> executed = exec.Execute(plan, options);
  for (const Result<ExecResult>* got : {&interp, &fused, &executed}) {
    ASSERT_EQ(oracle.ok(), got->ok())
        << (oracle.ok() ? got->status() : oracle.status()).ToString();
    if (!oracle.ok()) {
      EXPECT_EQ(oracle.status().ToString(), got->status().ToString());
      continue;
    }
    EXPECT_EQ(AllBits(oracle.value()), AllBits(got->value()))
        << oracle.value().output << " vs " << got->value().output;
  }
}

// The private table on either side; dense (direct-addressed), sparse
// (open-addressed) and repeated build keys; COUNT, SUM weighed from the
// probe side, the build side and both, and AVG; plain runs, include_rows,
// replace_private_rows, the one pass (twice, so the second answers from the
// S′ memo) and the domain pass's replace + one pass shape; 1 and 4
// threads.
TEST(FusedKernelJoinTest, MatchesInterpretedAndRowOracleBitForBit) {
  std::vector<int64_t> dense, sparse, repeated;
  for (int64_t i = 0; i < 24; ++i) {
    dense.push_back(i * 2);           // span 47 < 4 x 24: direct
    sparse.push_back(i * 1000 - 7);   // span ~23,000: open addressing
    repeated.push_back(i % 5 * 3);    // chains of up to 5 entries
  }
  ASSERT_TRUE(JoinTable(dense).dense());
  ASSERT_FALSE(JoinTable(sparse).dense());
  const Table b("b", ProbeSchema(), ProbeRows(0));
  const std::shared_ptr<const ColumnarTable> replaced =
      ColumnarTable::Build(ProbeSchema(), ProbeRows(3));
  const std::vector<size_t> include = {0, 1, 5, 9, 40, 41, 2000, 4095, 4096,
                                       4999};
  const std::vector<size_t> sample_a = {2, 3, 17, 18, 4097, 4998};
  const std::vector<size_t> sample_b = {0, 6, 100, 4100};

  const struct {
    const char* name;
    ExprPtr weight;  // null: COUNT
    bool avg;        // AVG, not SUM
  } weights[] = {
      {"count", nullptr, false},
      {"probe", Col("b_v"), false},
      {"probe_lit", Mul(Col("b_v"), Lit(-0.5)), false},
      {"build", Col("a_v"), false},
      {"both", Mul(Col("a_v"), Col("b_v")), false},
      {"avg", Mul(Col("a_v"), Col("b_v")), true},
  };
  for (const auto* keys : {&dense, &sparse, &repeated}) {
    const Table a = BuildTable(*keys);
    const Catalog catalog{{"a", &a}, {"b", &b}};
    const PlanPtr achain = FilterPlan(ScanPlan("a"), Ne(Col("a_s"), Lit("z")));
    const PlanPtr bchain = FilterPlan(ScanPlan("b"), Ge(Col("b_id"), Lit(3.0)));
    for (size_t threads : {size_t{1}, size_t{4}}) {
      engine::ExecContext ctx(engine::ExecConfig{
          .threads = threads, .default_partitions = threads});
      const PlanExecutor exec(&ctx, &catalog);
      for (bool private_left : {true, false}) {
        const PlanPtr join =
            private_left ? JoinPlan(bchain, achain, "b_key", "a_key")
                         : JoinPlan(achain, bchain, "a_key", "b_key");
        for (const auto& w : weights) {
          const PlanPtr plan = w.weight == nullptr ? CountPlan(join)
                               : w.avg ? AvgPlan(join, w.weight)
                                       : SumPlan(join, w.weight);
          const std::string what =
              std::string(w.name) + " keys=" +
              std::to_string(keys == &dense ? 0 : keys == &sparse ? 1 : 2) +
              " left=" + (private_left ? "b" : "a") +
              " threads=" + std::to_string(threads);
          ExecOptions plain;
          plain.private_table = "b";
          ExpectJoinEqual(&ctx, exec, catalog, plan, plain, what + " plain");
          ExecOptions inc = plain;
          inc.include_rows = &include;
          ExpectJoinEqual(&ctx, exec, catalog, plan, inc, what + " include");
          ExecOptions rep = plain;
          rep.replace_private_rows = replaced.get();
          ExpectJoinEqual(&ctx, exec, catalog, plan, rep, what + " replace");
          ExecOptions pass = plain;
          pass.sample_rows = &sample_a;
          pass.partitions = 3;
          ExpectJoinEqual(&ctx, exec, catalog, plan, pass, what + " pass");
          pass.sample_rows = &sample_b;
          ExpectJoinEqual(&ctx, exec, catalog, plan, pass, what + " memo");
          ExecOptions domain = rep;
          domain.sample_rows = &sample_b;
          domain.partitions = 1;
          ExpectJoinEqual(&ctx, exec, catalog, plan, domain, what + " domain");
        }
      }
    }
  }
}

// An empty build side: the probe chain still runs over all its rows (the
// death test DeathTest.FusedJoinRunsTheProbeChainOverAnEmptyBuild shows an
// aborting conjunct still fires), nothing matches, and COUNT/SUM are exact
// zeros while AVG/MIN/MAX fail as on the interpreted path. An empty probe
// side gives the same.
TEST(FusedKernelJoinTest, EmptySidesJoinNothing) {
  std::vector<int64_t> keys(24);
  for (int64_t i = 0; i < 24; ++i) keys[i] = i;
  const Table a = BuildTable(keys);
  const Table b("b", ProbeSchema(), ProbeRows(0));
  const Catalog catalog{{"a", &a}, {"b", &b}};
  engine::ExecContext ctx(
      engine::ExecConfig{.threads = 4, .default_partitions = 4});
  const PlanExecutor exec(&ctx, &catalog);
  const PlanPtr none_a = FilterPlan(ScanPlan("a"), Lt(Col("a_key"), Lit(-1.0)));
  const PlanPtr all_b = FilterPlan(ScanPlan("b"), Ge(Col("b_id"), Lit(0.0)));
  const PlanPtr all_a = ScanPlan("a");
  const PlanPtr none_b = FilterPlan(ScanPlan("b"), Gt(Col("b_id"), Lit(1e9)));
  const std::vector<size_t> sample = {1, 2, 3};
  using Sides = std::pair<PlanPtr, PlanPtr>;
  for (const auto& [l, r] : {Sides{none_a, all_b}, Sides{all_a, none_b}}) {
    const PlanPtr join = JoinPlan(l, r, "a_key", "b_key");
    ExecOptions plain;
    plain.private_table = "b";
    ExecOptions pass = plain;
    pass.sample_rows = &sample;
    pass.partitions = 2;
    ExpectJoinEqual(&ctx, exec, catalog, CountPlan(join), plain, "count");
    ExpectJoinEqual(&ctx, exec, catalog, CountPlan(join), pass, "count pass");
    ExpectJoinEqual(&ctx, exec, catalog, SumPlan(join, Col("a_v")), pass,
                    "sum pass");
    for (PlanPtr p : {AvgPlan(join, Col("b_v")), MinPlan(join, Col("a_v")),
                      MaxPlan(join, Col("b_v"))}) {
      const Result<ExecResult> got = ExecuteColumnar(&ctx, &catalog, p, plain);
      ASSERT_FALSE(got.ok());
      EXPECT_EQ(got.status().code(), StatusCode::kFailedPrecondition);
      ExpectJoinEqual(&ctx, exec, catalog, p, plain, "avg/min/max");
    }
  }
}

// MIN and MAX keep the first of tied weights in pair order, and +0.0 and
// -0.0 tie, so over a join they are not fused: every hint and filter below
// gives the interpreted path's bits, zero signs included (the row oracle's
// own pair order may differ on such a tie, so it is left out here).
TEST(FusedKernelJoinTest, MinMaxOverAJoinRunInterpreted) {
  // a: keys 1, 1, 2, 2 with weights +0, -0, -0, +0.
  const double av[] = {0.0, -0.0, -0.0, 0.0};
  const int64_t akeys[] = {1, 1, 2, 2};
  std::vector<Row> arows;
  for (int i = 0; i < 4; ++i) {
    arows.push_back({Value{akeys[i]}, Value{av[i]}, Value{std::string("x")}});
  }
  const Table a("a", Schema({{"a_key", ValueType::kInt},
                             {"a_v", ValueType::kDouble},
                             {"a_s", ValueType::kString}}),
                std::move(arows));
  // b: ten rows, only the last three match (keys 1, 2, 1).
  const int64_t bkeys[] = {9, 9, 9, 9, 9, 9, 9, 1, 2, 1};
  const double bv[] = {1, 1, 1, 1, 1, 1, 1, 0.5, -2.0, 3.0};
  std::vector<Row> brows;
  for (int64_t i = 0; i < 10; ++i) {
    brows.push_back({Value{bkeys[i]}, Value{bv[i]}, Value{i}});
  }
  const Table b("b", ProbeSchema(), std::move(brows));
  const Catalog catalog{{"a", &a}, {"b", &b}};
  for (size_t threads : {size_t{1}, size_t{4}}) {
    engine::ExecContext ctx(engine::ExecConfig{.threads = threads,
                                               .default_partitions = threads});
    // Keeping b_id >= 7 leaves three b rows, fewer than a's four; keeping
    // all ten leaves more.
    for (double cut : {7.0, 0.0}) {
      for (BuildSide hint :
           {BuildSide::kAuto, BuildSide::kLeft, BuildSide::kRight}) {
        auto join = std::make_shared<PlanNode>(*JoinPlan(
            ScanPlan("a"), FilterPlan(ScanPlan("b"), Ge(Col("b_id"), Lit(cut))),
            "a_key", "b_key"));
        join->build_side = hint;
        for (PlanPtr plan :
             {MinPlan(join, Col("a_v")), MaxPlan(join, Col("a_v")),
              MinPlan(join, Mul(Col("a_v"), Col("b_v"))),
              MaxPlan(join, Mul(Col("b_v"), Col("a_v")))}) {
          const std::string what = PlanToString(plan) +
                                   " cut=" + std::to_string(cut) +
                                   " threads=" + std::to_string(threads);
          EXPECT_FALSE(FusableShape(plan).has_value()) << what;
          const Result<ExecResult> interp =
              ExecuteColumnarInterpreted(&ctx, &catalog, plan, {});
          const Result<ExecResult> got =
              ExecuteColumnar(&ctx, &catalog, plan, {});
          ASSERT_TRUE(interp.ok()) << what;
          ASSERT_TRUE(got.ok()) << what;
          EXPECT_EQ(interp.value().output, 0.0) << what;
          EXPECT_EQ(AllBits(interp.value()), AllBits(got.value())) << what;
        }
      }
    }
  }
}

// The release benchmark's join template (COUNT over orders JOIN lineitem,
// lineitem private) takes the fused join: a cold one pass runs the build
// and one probe section and nothing of the interpreted join; a domain pass
// sharing the release's block cache probes the cached build, so it runs
// the probe section alone.
TEST(FusedKernelJoinTest, ReleaseJoinTemplateRunsOneProbeSection) {
  const tpch::TpchDataset data(tpch::TpchConfig{.num_orders = 2000});
  const Catalog catalog = data.catalog();
  Result<PlanPtr> parsed = ParseSql(
      "SELECT COUNT(*) FROM orders JOIN lineitem ON o_orderkey = l_orderkey "
      "WHERE o_orderdate >= 100 AND o_orderdate < 2000 AND l_quantity < 47");
  ASSERT_TRUE(parsed.ok());
  OptimizerOptions opt;
  opt.private_table = "lineitem";
  const PlanPtr plan = Optimize(parsed.value(), catalog, opt);
  ASSERT_TRUE(FusableShape(plan).has_value()) << PlanToString(plan);

  engine::ExecContext ctx(
      engine::ExecConfig{.threads = 4, .default_partitions = 4});
  engine::BlockCache cache(nullptr);
  const std::vector<size_t> sample = {0, 10, 20, 30};
  ExecOptions pass;
  pass.private_table = "lineitem";
  pass.sample_rows = &sample;
  pass.partitions = 2;
  pass.cache = &cache;
  auto phases = [&] {
    std::vector<std::string> out;
    for (const auto& [phase, tasks] : ctx.metrics().Snapshot().phase_tasks) {
      if (tasks > 0) out.push_back(phase);
    }
    return out;
  };
  ASSERT_TRUE(ExecuteColumnar(&ctx, &catalog, plan, pass).ok());
  EXPECT_EQ(phases(), (std::vector<std::string>{"columnar/fused_join",
                                                "columnar/join_build"}));

  Rng rng = Rng::ForStream(5, "fused/domain");
  Result<std::shared_ptr<const ColumnarTable>> domain =
      data.SampleColumns("lineitem", 100, rng);
  ASSERT_TRUE(domain.ok());
  std::vector<size_t> all(100);
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  ExecOptions dpass = pass;
  dpass.replace_private_rows = domain.value().get();
  dpass.sample_rows = &all;
  dpass.partitions = 1;
  const uint64_t before =
      ctx.metrics().Snapshot().phase_tasks["columnar/join_build"];
  const Result<ExecResult> fused = ExecuteColumnar(&ctx, &catalog, plan, dpass);
  ASSERT_TRUE(fused.ok());
  EXPECT_EQ(ctx.metrics().Snapshot().phase_tasks["columnar/join_build"],
            before);
  dpass.cache = nullptr;
  const Result<ExecResult> interp =
      ExecuteColumnarInterpreted(&ctx, &catalog, plan, dpass);
  ASSERT_TRUE(interp.ok());
  EXPECT_EQ(AllBits(interp.value()), AllBits(fused.value()));
}

}  // namespace
}  // namespace upa::rel
