#include "relational/optimizer.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <numeric>
#include <vector>

#include "relational/card_est.h"
#include "relational/cost_model.h"
#include "relational/executor.h"
#include "relational/sql_parser.h"
#include "tpch/generator.h"
#include "tpch/queries.h"

namespace upa::rel {
namespace {

class OptimizerTest : public ::testing::Test {
 protected:
  OptimizerTest()
      : data_([] {
          tpch::TpchConfig cfg;
          cfg.num_orders = 300;
          return cfg;
        }()),
        ctx_(engine::ExecConfig{.threads = 2, .default_partitions = 3}),
        catalog_(data_.catalog()),
        executor_(&ctx_, &catalog_) {}

  tpch::TpchDataset data_;
  engine::ExecContext ctx_;
  Catalog catalog_;
  PlanExecutor executor_;
};

TEST_F(OptimizerTest, SingleTablePredicateReachesScan) {
  auto plan = ParseSql(
      "SELECT COUNT(*) FROM orders JOIN lineitem ON o_orderkey = l_orderkey "
      "WHERE o_orderdate < 500");
  ASSERT_TRUE(plan.ok());
  PlanPtr optimized = PushDownFilters(plan.value(), catalog_);
  std::string s = PlanToString(optimized);
  // The orders predicate must sit below the join, directly over its scan.
  EXPECT_NE(s.find("Join(Filter(Scan(orders)"), std::string::npos) << s;
}

TEST_F(OptimizerTest, CrossTablePredicateStaysAboveJoin) {
  auto plan = ParseSql(
      "SELECT COUNT(*) FROM orders JOIN lineitem ON o_orderkey = l_orderkey "
      "WHERE o_orderdate < l_shipdate");
  ASSERT_TRUE(plan.ok());
  PlanPtr optimized = PushDownFilters(plan.value(), catalog_);
  std::string s = PlanToString(optimized);
  EXPECT_NE(s.find("Filter(Join("), std::string::npos) << s;
}

TEST_F(OptimizerTest, MixedPredicatesSplitCorrectly) {
  auto plan = ParseSql(
      "SELECT COUNT(*) FROM orders JOIN lineitem ON o_orderkey = l_orderkey "
      "WHERE o_orderdate < 500 AND l_quantity > 10 AND "
      "o_orderdate < l_shipdate");
  ASSERT_TRUE(plan.ok());
  PlanPtr optimized = PushDownFilters(plan.value(), catalog_);
  std::string s = PlanToString(optimized);
  EXPECT_NE(s.find("Filter(Scan(orders)"), std::string::npos) << s;
  EXPECT_NE(s.find("Filter(Scan(lineitem)"), std::string::npos) << s;
  EXPECT_NE(s.find("Filter(Join("), std::string::npos) << s;
}

TEST_F(OptimizerTest, PlanWithoutFiltersUnchanged) {
  auto plan = ParseSql("SELECT COUNT(*) FROM lineitem");
  ASSERT_TRUE(plan.ok());
  PlanPtr optimized = PushDownFilters(plan.value(), catalog_);
  EXPECT_EQ(PlanToString(optimized), PlanToString(plan.value()));
}

TEST_F(OptimizerTest, OptimizedPlanGivesIdenticalResults) {
  for (const char* sql : {
           "SELECT COUNT(*) FROM orders JOIN lineitem ON o_orderkey = "
           "l_orderkey WHERE o_orderdate >= 400 AND o_orderdate < 900 AND "
           "l_commitdate < l_receiptdate",
           "SELECT SUM(l_extendedprice * l_discount) FROM lineitem WHERE "
           "l_shipdate >= 365 AND l_discount >= 0.03",
           "SELECT COUNT(*) FROM customer JOIN orders ON c_custkey = "
           "o_custkey WHERE o_orderpriority <> '1-URGENT' AND "
           "c_nationkey < 10",
       }) {
    auto plan = ParseSql(sql);
    ASSERT_TRUE(plan.ok()) << sql;
    PlanPtr optimized = PushDownFilters(plan.value(), catalog_);
    auto base = executor_.Execute(plan.value());
    auto opt = executor_.Execute(optimized);
    ASSERT_TRUE(base.ok() && opt.ok()) << sql;
    EXPECT_NEAR(base.value().output, opt.value().output, 1e-9) << sql;
  }
}

TEST_F(OptimizerTest, OptimizedPlanPreservesContributions) {
  auto plan = ParseSql(
      "SELECT COUNT(*) FROM customer JOIN orders ON c_custkey = o_custkey "
      "WHERE o_orderpriority <> '1-URGENT' AND c_nationkey < 15");
  ASSERT_TRUE(plan.ok());
  PlanPtr optimized = PushDownFilters(plan.value(), catalog_);

  // Every order sampled: the one pass reports each one's contribution.
  std::vector<size_t> all(data_.orders().NumRows());
  std::iota(all.begin(), all.end(), size_t{0});
  ExecOptions opts;
  opts.private_table = "orders";
  opts.sample_rows = &all;
  opts.partitions = 1;
  auto base = executor_.Execute(plan.value(), opts);
  auto opt = executor_.Execute(optimized, opts);
  ASSERT_TRUE(base.ok() && opt.ok());
  ASSERT_EQ(base.value().sample_contributions.size(), all.size());
  ASSERT_EQ(opt.value().sample_contributions.size(), all.size());
  for (size_t i = 0; i < all.size(); ++i) {
    EXPECT_NEAR(opt.value().sample_contributions[i],
                base.value().sample_contributions[i], 1e-9)
        << i;
  }
}

TEST_F(OptimizerTest, HandBuiltTpchPlansSurvivePushdown) {
  // The hand-built queries already filter before joining; pushdown must
  // not change their results.
  for (const auto& q : tpch::AllTpchQueries()) {
    PlanPtr optimized = PushDownFilters(q.plan, catalog_);
    auto base = executor_.Execute(q.plan);
    auto opt = executor_.Execute(optimized);
    ASSERT_TRUE(base.ok() && opt.ok()) << q.name;
    EXPECT_NEAR(base.value().output, opt.value().output, 1e-9) << q.name;
  }
}

TEST_F(OptimizerTest, TpchSqlFormsMatchHandBuiltPlans) {
  // The paper's queries written as SQL + pushdown == the hand-built
  // filter-before-join plans, output-wise.
  struct SqlCase {
    const char* name;
    const char* sql;
  };
  for (const SqlCase& c : std::initializer_list<SqlCase>{
           {"TPCH1", "SELECT COUNT(*) FROM lineitem"},
           {"TPCH4",
            "SELECT COUNT(*) FROM orders JOIN lineitem ON o_orderkey = "
            "l_orderkey WHERE o_orderdate >= 400 AND o_orderdate < 490 AND "
            "l_commitdate < l_receiptdate"},
           {"TPCH6",
            "SELECT SUM(l_extendedprice * l_discount) FROM lineitem WHERE "
            "l_shipdate >= 365 AND l_shipdate < 730 AND l_discount >= 0.05 "
            "AND l_discount <= 0.07 AND l_quantity < 24.0"},
           {"TPCH13",
            "SELECT COUNT(*) FROM customer JOIN orders ON c_custkey = "
            "o_custkey WHERE o_orderpriority <> '1-URGENT'"},
       }) {
    auto sql_plan = ParseSql(c.sql);
    ASSERT_TRUE(sql_plan.ok()) << c.name;
    PlanPtr optimized = PushDownFilters(sql_plan.value(), catalog_);
    auto sql_result = executor_.Execute(optimized);
    ASSERT_TRUE(sql_result.ok()) << c.name;

    for (const auto& q : tpch::AllTpchQueries()) {
      if (q.name != c.name) continue;
      auto hand = executor_.Execute(q.plan);
      ASSERT_TRUE(hand.ok()) << c.name;
      EXPECT_NEAR(sql_result.value().output, hand.value().output, 1e-6)
          << c.name;
    }
  }
}

// --- Regression: aggregates below the root used to hard-abort pushdown. ---

TEST_F(OptimizerTest, PushdownTreatsNestedAggregateAsBarrier) {
  // Join over an aggregate subquery. Before the barrier fix, Sink() hit a
  // UPA_CHECK on the non-root aggregate and aborted the process.
  PlanPtr inner = CountPlan(
      FilterPlan(ScanPlan("lineitem"), Lt(Col("l_quantity"), Lit(10.0))));
  PlanPtr join = JoinPlan(ScanPlan("orders"), inner, "o_orderkey", "count");
  PlanPtr plan = CountPlan(
      FilterPlan(join, Lt(Col("o_orderdate"), Lit(int64_t{500}))));

  PlanPtr optimized = PushDownFilters(plan, catalog_);
  std::string s = PlanToString(optimized);
  // The orders conjunct sinks to its scan; the aggregate subtree keeps its
  // own filter inside (nothing crosses the barrier in either direction).
  EXPECT_NE(s.find("Filter(Scan(orders)"), std::string::npos) << s;
  EXPECT_NE(s.find("Count(Filter(Scan(lineitem)"), std::string::npos) << s;
}

TEST_F(OptimizerTest, PushdownNeverSinksThroughAggregate) {
  // A filter over a nested aggregate's (scalar) output must stay above the
  // aggregate even though the column name matches the child's schema.
  PlanPtr plan = CountPlan(FilterPlan(CountPlan(ScanPlan("lineitem")),
                                      Gt(Col("l_quantity"), Lit(5.0))));
  PlanPtr optimized = PushDownFilters(plan, catalog_);
  EXPECT_EQ(PlanToString(optimized), PlanToString(plan));
}

// --- Regression: conjuncts on a column both join sides provide used to ---
// --- sink into whichever side was tried first.                          ---

class AmbiguousSchemaTest : public ::testing::Test {
 protected:
  AmbiguousSchemaTest()
      : t1_("t1",
            Schema({{"id", ValueType::kInt}, {"v", ValueType::kDouble}}),
            {{Value{int64_t{1}}, Value{0.5}}, {Value{int64_t{2}}, Value{1.5}}}),
        t2_("t2",
            Schema({{"id", ValueType::kInt}, {"w", ValueType::kDouble}}),
            {{Value{int64_t{1}}, Value{2.5}}, {Value{int64_t{3}}, Value{3.5}}}),
        catalog_{{"t1", &t1_}, {"t2", &t2_}} {}

  Table t1_, t2_;
  Catalog catalog_;
};

TEST_F(AmbiguousSchemaTest, AmbiguousColumnConjunctStaysAboveJoin) {
  // `id` exists in both t1 and t2: pushing `id > 3` into either side would
  // silently resolve it against one table. It must stay above the join.
  PlanPtr plan = CountPlan(
      FilterPlan(JoinPlan(ScanPlan("t1"), ScanPlan("t2"), "id", "id"),
                 And(Gt(Col("id"), Lit(int64_t{3})),
                     Lt(Col("v"), Lit(1.0)))));
  PlanPtr optimized = PushDownFilters(plan, catalog_);
  std::string s = PlanToString(optimized);
  // The unambiguous conjunct sinks to t1's scan...
  EXPECT_NE(s.find("Filter(Scan(t1), (v < 1"), std::string::npos) << s;
  // ...while the ambiguous one stays above the join: `id` never appears in
  // a scan-level filter.
  EXPECT_NE(s.find("Filter(Join("), std::string::npos) << s;
  EXPECT_EQ(s.find("Filter(Scan(t1), (id"), std::string::npos) << s;
  EXPECT_EQ(s.find("Filter(Scan(t2)"), std::string::npos) << s;
}

// --- Cardinality estimator -------------------------------------------------

TEST_F(OptimizerTest, EstimatorScanRowsAreExact) {
  CardinalityEstimator est(&catalog_);
  EXPECT_DOUBLE_EQ(est.EstimateRows(ScanPlan("orders")),
                   static_cast<double>(data_.table("orders").NumRows()));
  EXPECT_DOUBLE_EQ(est.EstimateRows(ScanPlan("no_such_table")), 0.0);
}

TEST_F(OptimizerTest, EqualitySelectivityIsOneOverNdv) {
  CardinalityEstimator est(&catalog_);
  PlanPtr scan = ScanPlan("orders");
  const double ndv =
      static_cast<double>(data_.table("orders").DistinctCount("o_orderkey"));
  EXPECT_NEAR(
      est.EstimateSelectivity(Eq(Col("o_orderkey"), Lit(int64_t{1})), scan),
      1.0 / ndv, 1e-12);
}

TEST_F(OptimizerTest, RangeSelectivityFollowsHistogram) {
  CardinalityEstimator est(&catalog_);
  PlanPtr scan = ScanPlan("lineitem");
  const double narrow =
      est.EstimateSelectivity(Lt(Col("l_quantity"), Lit(5.0)), scan);
  const double wide =
      est.EstimateSelectivity(Lt(Col("l_quantity"), Lit(40.0)), scan);
  EXPECT_LT(narrow, wide);
  EXPECT_GE(narrow, 0.0);
  EXPECT_LE(wide, 1.0);
  // Mirrored literal-column comparison estimates the same fraction.
  EXPECT_DOUBLE_EQ(
      est.EstimateSelectivity(Gt(Lit(5.0), Col("l_quantity")), scan), narrow);
}

TEST_F(OptimizerTest, ConjunctionMultipliesSelectivities) {
  CardinalityEstimator est(&catalog_);
  PlanPtr scan = ScanPlan("lineitem");
  ExprPtr a = Lt(Col("l_quantity"), Lit(20.0));
  ExprPtr b = Ge(Col("l_discount"), Lit(0.05));
  EXPECT_NEAR(est.EstimateSelectivity(And(a, b), scan),
              est.EstimateSelectivity(a, scan) *
                  est.EstimateSelectivity(b, scan),
              1e-12);
}

TEST_F(OptimizerTest, JoinEstimateUsesKeyDistinct) {
  CardinalityEstimator est(&catalog_);
  PlanPtr join = JoinPlan(ScanPlan("customer"), ScanPlan("orders"),
                          "c_custkey", "o_custkey");
  const double c = est.EstimateRows(ScanPlan("customer"));
  const double o = est.EstimateRows(ScanPlan("orders"));
  const double ndv = std::max(est.KeyDistinct(ScanPlan("customer"), "c_custkey"),
                              est.KeyDistinct(ScanPlan("orders"), "o_custkey"));
  ASSERT_GT(ndv, 0.0);
  EXPECT_NEAR(est.EstimateRows(join), c * o / ndv, 1e-9);
}

// --- Cost model ------------------------------------------------------------

TEST_F(OptimizerTest, CostModelChargesForFilterAndJoin) {
  CardinalityEstimator est(&catalog_);
  CostModel cost;
  const double scan = cost.PlanCost(ScanPlan("lineitem"), est);
  const double filtered = cost.PlanCost(
      FilterPlan(ScanPlan("lineitem"), Lt(Col("l_quantity"), Lit(20.0))),
      est);
  EXPECT_GT(scan, 0.0);
  EXPECT_GT(filtered, scan);  // filter evaluation is not free
  const double joined = cost.PlanCost(
      JoinPlan(ScanPlan("customer"), ScanPlan("orders"), "c_custkey",
               "o_custkey"),
      est);
  EXPECT_GT(joined, cost.PlanCost(ScanPlan("customer"), est) +
                        cost.PlanCost(ScanPlan("orders"), est));
}

// --- Cost-based rewrites ---------------------------------------------------

TEST_F(OptimizerTest, ConjunctsOrderedBySelectivity) {
  // An equality on a high-ndv key is far more selective than qty >= 0
  // (which keeps everything): ordering must put the equality first.
  PlanPtr plan = CountPlan(
      FilterPlan(ScanPlan("lineitem"),
                 And(Ge(Col("l_quantity"), Lit(0.0)),
                     Eq(Col("l_orderkey"), Lit(int64_t{7})))));
  PlanPtr optimized = Optimize(plan, catalog_);
  std::string s = PlanToString(optimized);
  EXPECT_LT(s.find("l_orderkey"), s.find("l_quantity")) << s;
}

TEST_F(OptimizerTest, BuildSideHintFollowsEstimates) {
  PlanPtr plan = CountPlan(JoinPlan(ScanPlan("orders"), ScanPlan("lineitem"),
                                    "o_orderkey", "l_orderkey"));
  PlanPtr optimized = Optimize(plan, catalog_);
  ASSERT_EQ(optimized->left->kind, PlanKind::kJoin);
  // orders is the (much) smaller side.
  EXPECT_EQ(optimized->left->build_side, BuildSide::kLeft);

  // The same join with lineitem as the privacy unit keeps kAuto: phase
  // runs shrink the private side at runtime.
  OptimizerOptions opt;
  opt.private_table = "lineitem";
  PlanPtr guarded = Optimize(plan, catalog_, opt);
  ASSERT_EQ(guarded->left->kind, PlanKind::kJoin);
  EXPECT_EQ(guarded->left->build_side, BuildSide::kAuto);
}

TEST_F(OptimizerTest, ReorderJoinsKeepsResultsBitIdentical) {
  // TPCH21 chains supplier ⋈ lineitem ⋈ orders ⋈ nation with nation
  // filtered to ~one row; a cost-based reorder should start from the
  // cheap nation edge — and must not change a single output bit.
  for (const auto& q : tpch::AllTpchQueries()) {
    PlanPtr optimized = Optimize(q.plan, catalog_);
    auto base = executor_.Execute(q.plan);
    auto opt = executor_.Execute(optimized);
    ASSERT_TRUE(base.ok() && opt.ok()) << q.name;
    EXPECT_EQ(std::bit_cast<uint64_t>(base.value().output),
              std::bit_cast<uint64_t>(opt.value().output))
        << q.name;
  }
}

TEST_F(OptimizerTest, ReorderJoinsPicksCheapNationEdgeFirst) {
  for (const auto& q : tpch::AllTpchQueries()) {
    if (q.name != "TPCH21") continue;
    PlanPtr optimized = Optimize(q.plan, catalog_);
    std::string s = PlanToString(optimized);
    // Hand-built Q21 joins nation last; the reorder joins the ~one-row
    // nation relation before the big lineitem/orders joins.
    EXPECT_LT(s.find("Scan(nation)"), s.find("Scan(orders)")) << s;
  }
}

TEST_F(OptimizerTest, LiftFiltersProducesSqlShape) {
  for (const auto& q : tpch::AllTpchQueries()) {
    PlanPtr lifted = LiftFilters(q.plan);
    // All filters conjoin into (at most) one node directly under the root
    // aggregate — the shape the SQL front-end emits.
    PlanStats stats = AnalyzePlan(lifted);
    EXPECT_LE(stats.num_filters, 1u) << q.name;
    auto base = executor_.Execute(q.plan);
    auto lift = executor_.Execute(lifted);
    ASSERT_TRUE(base.ok() && lift.ok()) << q.name;
    EXPECT_EQ(std::bit_cast<uint64_t>(base.value().output),
              std::bit_cast<uint64_t>(lift.value().output))
        << q.name;
  }
}

TEST_F(OptimizerTest, OptimizeRecoversPushedShapeFromLiftedPlans) {
  // Optimize(naive SQL shape) must do at least as well as the hand-built
  // plans: filters back at the scans, identical bits out.
  for (const auto& q : tpch::AllTpchQueries()) {
    PlanPtr lifted = LiftFilters(q.plan);
    PlanPtr optimized = Optimize(lifted, catalog_);
    auto base = executor_.Execute(q.plan);
    auto opt = executor_.Execute(optimized);
    ASSERT_TRUE(base.ok() && opt.ok()) << q.name;
    EXPECT_EQ(std::bit_cast<uint64_t>(base.value().output),
              std::bit_cast<uint64_t>(opt.value().output))
        << q.name;
  }
}

}  // namespace
}  // namespace upa::rel
