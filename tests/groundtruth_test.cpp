// Ground truth: the exact-incremental method must equal the naive
// rerun-everything oracle on both plan queries and map/reduce queries.
#include "groundtruth/ground_truth.h"

#include <gtest/gtest.h>

#include <memory>
#include <numeric>

#include "relational/plan.h"
#include "tpch/generator.h"
#include "tpch/queries.h"

namespace upa::gt {
namespace {

TEST(GroundTruthStructTest, FinalizeComputesExtremesAndSensitivity) {
  GroundTruth gt;
  gt.output = 10.0;
  gt.neighbour_outputs = {8.0, 9.5, 10.0, 12.0};
  gt.FinalizeFrom(gt.output);
  EXPECT_DOUBLE_EQ(gt.min_output, 8.0);
  EXPECT_DOUBLE_EQ(gt.max_output, 12.0);
  EXPECT_DOUBLE_EQ(gt.local_sensitivity, 2.0);
}

TEST(GroundTruthStructTest, EmptyNeighboursDegenerate) {
  GroundTruth gt;
  gt.output = 5.0;
  gt.FinalizeFrom(5.0);
  EXPECT_DOUBLE_EQ(gt.local_sensitivity, 0.0);
  EXPECT_DOUBLE_EQ(gt.min_output, 5.0);
}

TEST(NaiveGroundTruthTest, CountQuery) {
  auto run = [](std::optional<size_t> excluded) {
    return excluded.has_value() ? 99.0 : 100.0;
  };
  GroundTruth gt = NaiveGroundTruth(100, run);
  EXPECT_DOUBLE_EQ(gt.output, 100.0);
  EXPECT_EQ(gt.neighbour_outputs.size(), 100u);
  EXPECT_DOUBLE_EQ(gt.local_sensitivity, 1.0);
}

TEST(ExactSimpleGroundTruthTest, MatchesNaiveOnSumQuery) {
  engine::ExecContext ctx(engine::ExecConfig{.threads = 2});
  auto values = std::make_shared<std::vector<double>>();
  Rng rng(5);
  for (int i = 0; i < 300; ++i) values->push_back(rng.UniformDouble(-3, 7));

  core::SimpleQuerySpec<double> spec;
  spec.name = "sum";
  spec.ctx = &ctx;
  spec.records = values;
  spec.map_record = [](const double& v) { return core::Vec{v}; };
  spec.sample_domain = [](Rng& r) { return r.UniformDouble(-3, 7); };

  GroundTruth exact = ExactSimpleGroundTruth(spec, /*n_additions=*/50, 9);

  double total = std::accumulate(values->begin(), values->end(), 0.0);
  auto run = [&](std::optional<size_t> excluded) {
    return excluded.has_value() ? total - (*values)[*excluded] : total;
  };
  GroundTruth naive = NaiveGroundTruth(values->size(), run);

  EXPECT_NEAR(exact.output, naive.output, 1e-9);
  ASSERT_GE(exact.neighbour_outputs.size(), naive.neighbour_outputs.size());
  for (size_t i = 0; i < naive.neighbour_outputs.size(); ++i) {
    EXPECT_NEAR(exact.neighbour_outputs[i], naive.neighbour_outputs[i], 1e-9);
  }
  // Sensitivity at least the removal-side max.
  EXPECT_GE(exact.local_sensitivity, naive.local_sensitivity - 1e-9);
}

TEST(ExactSimpleGroundTruthTest, NonlinearPostIsHandled) {
  // post squares the sum: influence of record r is |S² - (S - r)²| — not
  // additive in outputs, but exact via monoid subtraction.
  engine::ExecContext ctx(engine::ExecConfig{.threads = 1});
  auto values = std::make_shared<std::vector<double>>(
      std::vector<double>{1.0, 2.0, 3.0});
  core::SimpleQuerySpec<double> spec;
  spec.name = "sumsq";
  spec.ctx = &ctx;
  spec.records = values;
  spec.map_record = [](const double& v) { return core::Vec{v}; };
  spec.sample_domain = [](Rng&) { return 1.0; };
  spec.post = [](const core::Vec& v) {
    double s = core::ScalarOf(v);
    return core::Vec{s * s};
  };
  GroundTruth gt = ExactSimpleGroundTruth(spec, 0, 1);
  EXPECT_DOUBLE_EQ(gt.output, 36.0);
  EXPECT_DOUBLE_EQ(gt.neighbour_outputs[0], 25.0);  // (6-1)²
  EXPECT_DOUBLE_EQ(gt.neighbour_outputs[1], 16.0);
  EXPECT_DOUBLE_EQ(gt.neighbour_outputs[2], 9.0);
  EXPECT_DOUBLE_EQ(gt.local_sensitivity, 27.0);
}

class PlanGroundTruthTest : public ::testing::Test {
 protected:
  PlanGroundTruthTest()
      : data_([] {
          tpch::TpchConfig cfg;
          cfg.num_orders = 200;
          return cfg;
        }()),
        ctx_(engine::ExecConfig{.threads = 2, .default_partitions = 3}),
        catalog_(data_.catalog()),
        executor_(&ctx_, &catalog_) {}

  tpch::TpchDataset data_;
  engine::ExecContext ctx_;
  rel::Catalog catalog_;
  rel::PlanExecutor executor_;
};

TEST_F(PlanGroundTruthTest, ExactMatchesNaiveOnEveryTpchQuery) {
  for (const auto& q : tpch::AllTpchQueries()) {
    size_t n = data_.table(q.private_table).NumRows();
    auto exact = ExactPlanGroundTruth(
        executor_, q.plan, q.private_table, n,
        [&](Rng& rng) { return data_.SampleRow(q.private_table, rng); },
        /*n_additions=*/0, 1);
    ASSERT_TRUE(exact.ok()) << q.name;

    // Naive: re-run the plan over every record but i, for the first 40.
    size_t probe = std::min<size_t>(40, n);
    for (size_t i = 0; i < probe; ++i) {
      std::vector<size_t> rest;
      for (size_t j = 0; j < n; ++j) {
        if (j != i) rest.push_back(j);
      }
      rel::ExecOptions opts;
      opts.private_table = q.private_table;
      opts.include_rows = &rest;
      auto r = executor_.Execute(q.plan, opts);
      ASSERT_TRUE(r.ok()) << q.name;
      EXPECT_NEAR(r.value().output, exact.value().neighbour_outputs[i], 1e-6)
          << q.name << " record " << i;
    }
  }
}

TEST_F(PlanGroundTruthTest, AdditionsExtendNeighbourList) {
  auto q = tpch::MakeQ1();
  size_t n = data_.lineitem().NumRows();
  auto gt = ExactPlanGroundTruth(
      executor_, q.plan, q.private_table, n,
      [&](Rng& rng) { return data_.SampleRow("lineitem", rng); },
      /*n_additions=*/25, 3);
  ASSERT_TRUE(gt.ok());
  EXPECT_EQ(gt.value().neighbour_outputs.size(), n + 25);
  // Count query: every addition neighbour is N+1, every removal N-1.
  for (size_t i = 0; i < n; ++i) {
    EXPECT_DOUBLE_EQ(gt.value().neighbour_outputs[i],
                     static_cast<double>(n - 1));
  }
  for (size_t i = n; i < n + 25; ++i) {
    EXPECT_DOUBLE_EQ(gt.value().neighbour_outputs[i],
                     static_cast<double>(n + 1));
  }
  EXPECT_DOUBLE_EQ(gt.value().local_sensitivity, 1.0);
}

TEST_F(PlanGroundTruthTest, Q21SensitivityReflectsJoinFanout) {
  // A lineitem participates in at most a handful of joined results, but
  // the Zipf skew means the ground-truth sensitivity exceeds 1 for join
  // queries with fan-out through orders.
  auto q = tpch::MakeQ4();
  size_t n = data_.orders().NumRows();
  auto gt = ExactPlanGroundTruth(
      executor_, q.plan, q.private_table, n,
      [&](Rng& rng) { return data_.SampleRow("orders", rng); }, 0, 1);
  ASSERT_TRUE(gt.ok());
  EXPECT_GE(gt.value().local_sensitivity, 1.0);
  EXPECT_LT(gt.value().local_sensitivity, 100.0);
}

}  // namespace
}  // namespace upa::gt
