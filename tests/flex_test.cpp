// FLEX static analyzer: support matrix and sensitivity arithmetic, both on
// hand-built tables and the generated TPC-H data.
#include "flex/analyzer.h"

#include <gtest/gtest.h>

#include <memory>

#include "tpch/generator.h"
#include "tpch/queries.h"

namespace upa::flex {
namespace {

using rel::Col;
using rel::CountPlan;
using rel::Eq;
using rel::FilterPlan;
using rel::JoinPlan;
using rel::Lit;
using rel::Row;
using rel::ScanPlan;
using rel::Schema;
using rel::SumPlan;
using rel::Table;
using rel::Value;
using rel::ValueType;

class FlexTest : public ::testing::Test {
 protected:
  FlexTest() {
    left_ = std::make_unique<Table>(
        "left", Schema({{"lk", ValueType::kInt}}),
        std::vector<Row>{{Value{int64_t{1}}},
                         {Value{int64_t{1}}},
                         {Value{int64_t{1}}},
                         {Value{int64_t{2}}}});
    right_ = std::make_unique<Table>(
        "right", Schema({{"rk", ValueType::kInt}}),
        std::vector<Row>{{Value{int64_t{5}}},
                         {Value{int64_t{5}}},
                         {Value{int64_t{6}}}});
    catalog_ = {{"left", left_.get()}, {"right", right_.get()}};
  }

  std::unique_ptr<Table> left_, right_;
  rel::Catalog catalog_;
};

TEST_F(FlexTest, PlainCountIsExactlyOne) {
  auto r = AnalyzeFlex(CountPlan(ScanPlan("left")), catalog_);
  ASSERT_TRUE(r.supported);
  EXPECT_DOUBLE_EQ(r.local_sensitivity, 1.0);
  EXPECT_TRUE(r.joins.empty());
}

TEST_F(FlexTest, CountWithFilterStillOne) {
  // FLEX ignores filters entirely.
  auto plan = CountPlan(
      FilterPlan(ScanPlan("left"), Eq(Col("lk"), Lit(int64_t{1}))));
  auto r = AnalyzeFlex(plan, catalog_);
  ASSERT_TRUE(r.supported);
  EXPECT_DOUBLE_EQ(r.local_sensitivity, 1.0);
}

TEST_F(FlexTest, JoinMultipliesMaxFrequencies) {
  auto plan = CountPlan(
      JoinPlan(ScanPlan("left"), ScanPlan("right"), "lk", "rk"));
  auto r = AnalyzeFlex(plan, catalog_);
  ASSERT_TRUE(r.supported);
  // mf(lk)=3, mf(rk)=2 → 6.
  EXPECT_DOUBLE_EQ(r.local_sensitivity, 6.0);
  ASSERT_EQ(r.joins.size(), 1u);
  EXPECT_EQ(r.joins[0].left_max_frequency, 3u);
  EXPECT_EQ(r.joins[0].right_max_frequency, 2u);
  EXPECT_EQ(r.joins[0].left_table, "left");
  EXPECT_EQ(r.joins[0].right_table, "right");
}

TEST_F(FlexTest, SumIsUnsupported) {
  auto r = AnalyzeFlex(SumPlan(ScanPlan("left"), Col("lk")), catalog_);
  EXPECT_FALSE(r.supported);
  EXPECT_NE(r.unsupported_reason.find("count"), std::string::npos);
}

TEST_F(FlexTest, NonAggregateIsUnsupported) {
  auto r = AnalyzeFlex(ScanPlan("left"), catalog_);
  EXPECT_FALSE(r.supported);
}

class FlexTpchTest : public ::testing::Test {
 protected:
  FlexTpchTest() : data_([] {
    tpch::TpchConfig cfg;
    cfg.num_orders = 1000;
    return cfg;
  }()), catalog_(data_.catalog()) {}

  tpch::TpchDataset data_;
  rel::Catalog catalog_;
};

TEST_F(FlexTpchTest, SupportMatrixMatchesPaperTable2) {
  for (const auto& q : tpch::AllTpchQueries()) {
    auto r = AnalyzeFlex(q.plan, catalog_);
    EXPECT_EQ(r.supported, q.flex_supported) << q.name;
  }
}

TEST_F(FlexTpchTest, Q1IsExact) {
  auto r = AnalyzeFlex(tpch::MakeQ1().plan, catalog_);
  ASSERT_TRUE(r.supported);
  EXPECT_DOUBLE_EQ(r.local_sensitivity, 1.0);
}

TEST_F(FlexTpchTest, MultiJoinQueriesBlowUp) {
  // The paper's error-magnification story: Q21 (3 joins over skewed keys)
  // must dwarf Q4 (1 join), which must exceed Q1 (no join).
  auto q1 = AnalyzeFlex(tpch::MakeQ1().plan, catalog_);
  auto q4 = AnalyzeFlex(tpch::MakeQ4().plan, catalog_);
  auto q21 = AnalyzeFlex(tpch::MakeQ21().plan, catalog_);
  ASSERT_TRUE(q1.supported && q4.supported && q21.supported);
  EXPECT_GT(q4.local_sensitivity, q1.local_sensitivity);
  EXPECT_GT(q21.local_sensitivity, 100.0 * q4.local_sensitivity);
}

TEST_F(FlexTpchTest, JoinFactorsAreResolvedToTables) {
  auto q21 = AnalyzeFlex(tpch::MakeQ21().plan, catalog_);
  ASSERT_TRUE(q21.supported);
  ASSERT_EQ(q21.joins.size(), 3u);
  for (const auto& j : q21.joins) {
    EXPECT_FALSE(j.left_table.empty());
    EXPECT_FALSE(j.right_table.empty());
    EXPECT_GE(j.left_max_frequency, 1u);
    EXPECT_GE(j.right_max_frequency, 1u);
  }
}

}  // namespace
}  // namespace upa::flex
