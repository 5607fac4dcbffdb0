// Fused single-pass kernels (relational/fused.h): edge cases and the
// fused-vs-interpreted-vs-row-oracle differential.
//
// The contract under test: fusion is purely physical. For every fusible
// Aggregate(Filter*(Scan)) chain, the fused kernel's output must match the
// interpreted columnar engine (ExecuteColumnarInterpreted, the unfused
// baseline) and the row oracle bit-for-bit — including
// NaN/±inf propagation through comparisons and exact sums, empty
// selections and dictionary-code boundary literals — across thread counts
// (suite names match the CI sanitizer filters).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "engine/context.h"
#include "relational/columnar.h"
#include "relational/executor.h"
#include "relational/expr.h"
#include "relational/plan.h"
#include "relational/table.h"

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

}  // namespace
}  // namespace upa::rel
