// PlanExecutor correctness: SPJ semantics, the one provenance pass's
// contributions and partition outputs, and option handling — all validated
// against straightforward hand computations and naive re-execution.
#include "relational/executor.h"

#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "relational/columnar.h"
#include "relational/plan.h"

namespace upa::rel {
namespace {

class ExecutorTest : public ::testing::Test {
 protected:
  ExecutorTest()
      : ctx_(engine::ExecConfig{.threads = 2, .default_partitions = 3}) {
    // users(uid, age); clicks(cid, uid_ref, weight)
    users_ = std::make_unique<Table>(
        "users",
        Schema({{"uid", ValueType::kInt}, {"age", ValueType::kInt}}),
        std::vector<Row>{
            {Value{int64_t{1}}, Value{int64_t{20}}},
            {Value{int64_t{2}}, Value{int64_t{30}}},
            {Value{int64_t{3}}, Value{int64_t{40}}},
            {Value{int64_t{4}}, Value{int64_t{50}}},
        });
    clicks_ = std::make_unique<Table>(
        "clicks",
        Schema({{"cid", ValueType::kInt},
                {"uid_ref", ValueType::kInt},
                {"weight", ValueType::kDouble}}),
        std::vector<Row>{
            {Value{int64_t{100}}, Value{int64_t{1}}, Value{1.5}},
            {Value{int64_t{101}}, Value{int64_t{1}}, Value{2.5}},
            {Value{int64_t{102}}, Value{int64_t{2}}, Value{4.0}},
            {Value{int64_t{103}}, Value{int64_t{3}}, Value{8.0}},
            {Value{int64_t{104}}, Value{int64_t{9}}, Value{16.0}},  // dangling
        });
    catalog_ = {{"users", users_.get()}, {"clicks", clicks_.get()}};
    executor_ = std::make_unique<PlanExecutor>(&ctx_, &catalog_);
  }

  engine::ExecContext ctx_;
  std::unique_ptr<Table> users_, clicks_;
  Catalog catalog_;
  std::unique_ptr<PlanExecutor> executor_;
};

TEST_F(ExecutorTest, CountScan) {
  auto r = executor_->Execute(CountPlan(ScanPlan("users")));
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.value().output, 4.0);
  EXPECT_EQ(r.value().result_rows, 4u);
}

TEST_F(ExecutorTest, CountWithFilter) {
  auto plan = CountPlan(
      FilterPlan(ScanPlan("users"), Ge(Col("age"), Lit(int64_t{30}))));
  auto r = executor_->Execute(plan);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.value().output, 3.0);
}

TEST_F(ExecutorTest, SumWithExpression) {
  auto plan = SumPlan(ScanPlan("clicks"), Mul(Col("weight"), Lit(2.0)));
  auto r = executor_->Execute(plan);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.value().output, 2.0 * (1.5 + 2.5 + 4.0 + 8.0 + 16.0));
}

TEST_F(ExecutorTest, JoinCount) {
  auto plan = CountPlan(
      JoinPlan(ScanPlan("users"), ScanPlan("clicks"), "uid", "uid_ref"));
  auto r = executor_->Execute(plan);
  ASSERT_TRUE(r.ok());
  // user 1 ↔ 2 clicks, user 2 ↔ 1, user 3 ↔ 1; uid 9 dangles.
  EXPECT_DOUBLE_EQ(r.value().output, 4.0);
}

TEST_F(ExecutorTest, JoinThenFilterOnBothSides) {
  auto plan = CountPlan(FilterPlan(
      JoinPlan(ScanPlan("users"), ScanPlan("clicks"), "uid", "uid_ref"),
      And(Ge(Col("age"), Lit(int64_t{20})), Gt(Col("weight"), Lit(2.0)))));
  auto r = executor_->Execute(plan);
  ASSERT_TRUE(r.ok());
  // qualifying: (1,101,2.5), (2,102,4.0), (3,103,8.0).
  EXPECT_DOUBLE_EQ(r.value().output, 3.0);
}

TEST_F(ExecutorTest, ContributionsMatchPerRecordInfluence) {
  auto plan = CountPlan(
      JoinPlan(ScanPlan("users"), ScanPlan("clicks"), "uid", "uid_ref"));
  const std::vector<size_t> all{0, 1, 2, 3};
  ExecOptions opts;
  opts.private_table = "users";
  opts.sample_rows = &all;
  opts.partitions = 1;
  auto r = executor_->Execute(plan, opts);
  ASSERT_TRUE(r.ok());
  // user row 0 (uid 1) contributes 2 joined rows, rows 1 and 2 one each,
  // row 3 (uid 4) zero.
  EXPECT_EQ(r.value().sample_contributions,
            (std::vector<double>{2.0, 1.0, 1.0, 0.0}));
}

TEST_F(ExecutorTest, ContributionsEqualNaiveRemoval) {
  auto plan = SumPlan(
      JoinPlan(ScanPlan("users"), ScanPlan("clicks"), "uid", "uid_ref"),
      Col("weight"));
  const std::vector<size_t> all{0, 1, 2, 3, 4};
  ExecOptions opts;
  opts.private_table = "clicks";
  opts.sample_rows = &all;
  opts.partitions = 1;
  auto full = executor_->Execute(plan, opts);
  ASSERT_TRUE(full.ok());

  for (size_t excluded = 0; excluded < clicks_->NumRows(); ++excluded) {
    std::vector<size_t> rest;
    for (size_t i : all) {
      if (i != excluded) rest.push_back(i);
    }
    ExecOptions opts2;
    opts2.private_table = "clicks";
    opts2.include_rows = &rest;
    auto without = executor_->Execute(plan, opts2);
    ASSERT_TRUE(without.ok());
    EXPECT_NEAR(without.value().output,
                full.value().output -
                    full.value().sample_contributions[excluded],
                1e-9)
        << "excluded row " << excluded;
  }
}

TEST_F(ExecutorTest, IncludeRowsRestrictsPrivateTable) {
  auto plan = CountPlan(ScanPlan("users"));
  std::vector<size_t> include{0, 2};
  ExecOptions opts;
  opts.private_table = "users";
  opts.include_rows = &include;
  auto r = executor_->Execute(plan, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.value().output, 2.0);
}

TEST_F(ExecutorTest, ReplacePrivateRowsSubstitutesContent) {
  auto plan = SumPlan(ScanPlan("clicks"), Col("weight"));
  const auto synthetic = ColumnarTable::Build(
      catalog_.at("clicks")->schema(),
      {
          {Value{int64_t{900}}, Value{int64_t{1}}, Value{100.0}},
          {Value{int64_t{901}}, Value{int64_t{2}}, Value{200.0}},
      });
  const std::vector<size_t> both{0, 1};
  ExecOptions opts;
  opts.private_table = "clicks";
  opts.replace_private_rows = synthetic.get();
  opts.sample_rows = &both;
  opts.partitions = 1;
  auto r = executor_->Execute(plan, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.value().output, 300.0);
  EXPECT_EQ(r.value().sample_contributions,
            (std::vector<double>{100.0, 200.0}));
}

// A replacement must have the private table's columns: both engines read
// it against that table's schema.
TEST_F(ExecutorTest, ReplacementWithOtherColumnsIsRejected) {
  auto plan = SumPlan(ScanPlan("clicks"), Col("weight"));
  const auto users = ColumnarTable::Build(
      catalog_.at("users")->schema(),
      {{Value{int64_t{1}}, Value{int64_t{20}}}});
  for (ExecEngine engine : {ExecEngine::kRowOracle, ExecEngine::kColumnar}) {
    ExecOptions opts;
    opts.engine = engine;
    opts.private_table = "clicks";
    opts.replace_private_rows = users.get();
    auto r = executor_->Execute(plan, opts);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
        << r.status().ToString();
  }
}

TEST_F(ExecutorTest, ReplacePlusIncludeComposes) {
  auto plan = SumPlan(ScanPlan("clicks"), Col("weight"));
  const auto synthetic = ColumnarTable::Build(
      catalog_.at("clicks")->schema(),
      {
          {Value{int64_t{900}}, Value{int64_t{1}}, Value{100.0}},
          {Value{int64_t{901}}, Value{int64_t{2}}, Value{200.0}},
          {Value{int64_t{902}}, Value{int64_t{3}}, Value{400.0}},
      });
  std::vector<size_t> include{1};
  ExecOptions opts;
  opts.private_table = "clicks";
  opts.replace_private_rows = synthetic.get();
  opts.include_rows = &include;
  auto r = executor_->Execute(plan, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.value().output, 200.0);
}

TEST_F(ExecutorTest, PartitionOutputsSumToTotal) {
  auto plan = CountPlan(
      JoinPlan(ScanPlan("users"), ScanPlan("clicks"), "uid", "uid_ref"));
  const std::vector<size_t> none;
  ExecOptions opts;
  opts.private_table = "users";
  opts.sample_rows = &none;
  opts.partitions = 2;
  auto r = executor_->Execute(plan, opts);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().partition_outputs.size(), 2u);
  EXPECT_DOUBLE_EQ(
      r.value().partition_outputs[0] + r.value().partition_outputs[1],
      r.value().output);
  // Partition 0 holds users rows 0, 2 (uid 1 → 2 rows, uid 3 → 1 row).
  EXPECT_DOUBLE_EQ(r.value().partition_outputs[0], 3.0);
  EXPECT_DOUBLE_EQ(r.value().partition_outputs[1], 1.0);
}

TEST_F(ExecutorTest, RejectsNonAggregateRoot) {
  auto r = executor_->Execute(ScanPlan("users"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ExecutorTest, RejectsUnknownTable) {
  auto r = executor_->Execute(CountPlan(ScanPlan("nope")));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST_F(ExecutorTest, RejectsUnknownJoinKey) {
  auto plan = CountPlan(
      JoinPlan(ScanPlan("users"), ScanPlan("clicks"), "uid", "bogus"));
  auto r = executor_->Execute(plan);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ExecutorTest, RejectsPrivateTableNotInPlan) {
  auto plan = CountPlan(ScanPlan("users"));
  ExecOptions opts;
  opts.private_table = "clicks";
  auto r = executor_->Execute(plan, opts);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ExecutorTest, RejectsPrivateSelfJoin) {
  auto plan = CountPlan(
      JoinPlan(ScanPlan("users"), ScanPlan("users"), "uid", "uid"));
  ExecOptions opts;
  opts.private_table = "users";
  auto r = executor_->Execute(plan, opts);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnsupported);
}

// A malformed include_rows is the caller's error, never an engine abort.
TEST_F(ExecutorTest, RejectsMalformedIncludeRows) {
  auto plan = CountPlan(
      JoinPlan(ScanPlan("users"), ScanPlan("clicks"), "uid", "uid_ref"));
  const std::vector<std::vector<size_t>> bad = {
      {0, 4},     // users has 4 rows
      {2, 1},     // unsorted
      {1, 1, 2},  // duplicated
  };
  for (ExecEngine engine : {ExecEngine::kRowOracle, ExecEngine::kColumnar}) {
    for (const std::vector<size_t>& rows : bad) {
      ExecOptions opts;
      opts.engine = engine;
      opts.private_table = "users";
      opts.include_rows = &rows;
      auto r = executor_->Execute(plan, opts);
      ASSERT_FALSE(r.ok());
      EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
          << r.status().ToString();
    }
    // Against a replaced private table, the range is the replacement's.
    const auto one = ColumnarTable::Build(
        catalog_.at("users")->schema(),
        {{Value{int64_t{1}}, Value{int64_t{20}}}});
    const std::vector<size_t> second{1};
    ExecOptions opts;
    opts.engine = engine;
    opts.private_table = "users";
    opts.replace_private_rows = one.get();
    opts.include_rows = &second;
    auto r = executor_->Execute(plan, opts);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST_F(ExecutorTest, ScanCacheHitsOnRepeatedRuns) {
  auto plan = CountPlan(
      JoinPlan(ScanPlan("users"), ScanPlan("clicks"), "uid", "uid_ref"));
  engine::BlockCache cache(&ctx_.metrics());
  ExecOptions opts;
  opts.private_table = "users";
  opts.cache = &cache;
  auto before = ctx_.metrics().Snapshot();
  ASSERT_TRUE(executor_->Execute(plan, opts).ok());
  ASSERT_TRUE(executor_->Execute(plan, opts).ok());
  auto delta = ctx_.metrics().Snapshot() - before;
  EXPECT_GE(delta.cache_hits, 1u);  // clicks scan cached across runs
}

TEST_F(ExecutorTest, CacheNeverAliasesRecreatedTable) {
  // Regression: cache keys must survive a table being destroyed and a new
  // one (same name, same address is possible, different data) taking its
  // place in the catalog. With address-based keys the second run could hit
  // the first table's cached scan and report 5 instead of 2.
  auto plan = CountPlan(ScanPlan("clicks"));
  for (ExecEngine engine : {ExecEngine::kRowOracle, ExecEngine::kColumnar}) {
    engine::BlockCache cache(&ctx_.metrics());
    ExecOptions opts;
    opts.engine = engine;
    opts.cache = &cache;

    auto r1 = executor_->Execute(plan, opts);
    ASSERT_TRUE(r1.ok());
    EXPECT_DOUBLE_EQ(r1.value().output, 5.0);

    // Destroy and rebuild "clicks" with different contents; same ctx,
    // same cache, same options. The allocator is free to reuse the
    // address of the old Table.
    Schema schema = clicks_->schema();
    clicks_ = std::make_unique<Table>(
        "clicks", schema,
        std::vector<Row>{
            {Value{int64_t{200}}, Value{int64_t{1}}, Value{32.0}},
            {Value{int64_t{201}}, Value{int64_t{2}}, Value{64.0}},
        });
    catalog_["clicks"] = clicks_.get();

    auto r2 = executor_->Execute(plan, opts);
    ASSERT_TRUE(r2.ok());
    EXPECT_DOUBLE_EQ(r2.value().output, 2.0);

    // Restore the fixture's table for the next engine's iteration.
    clicks_ = std::make_unique<Table>(
        "clicks", schema,
        std::vector<Row>{
            {Value{int64_t{100}}, Value{int64_t{1}}, Value{1.5}},
            {Value{int64_t{101}}, Value{int64_t{1}}, Value{2.5}},
            {Value{int64_t{102}}, Value{int64_t{2}}, Value{4.0}},
            {Value{int64_t{103}}, Value{int64_t{3}}, Value{8.0}},
            {Value{int64_t{104}}, Value{int64_t{9}}, Value{16.0}},
        });
    catalog_["clicks"] = clicks_.get();
  }
}

TEST_F(ExecutorTest, BothEnginesAgreeOnFixture) {
  auto plan = SumPlan(
      JoinPlan(ScanPlan("users"), ScanPlan("clicks"), "uid", "uid_ref"),
      Mul(Col("weight"), Col("age")));
  const std::vector<size_t> sample{1, 2};
  ExecOptions opts;
  opts.private_table = "users";
  opts.sample_rows = &sample;
  opts.partitions = 2;
  auto row = opts, col = opts;
  row.engine = ExecEngine::kRowOracle;
  col.engine = ExecEngine::kColumnar;
  auto a = executor_->Execute(plan, row);
  auto b = executor_->Execute(plan, col);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.value().output, b.value().output);
  EXPECT_EQ(a.value().result_rows, b.value().result_rows);
  EXPECT_EQ(a.value().partition_outputs, b.value().partition_outputs);
  EXPECT_EQ(a.value().sample_contributions, b.value().sample_contributions);
}

TEST_F(ExecutorTest, DeterministicOutputsAcrossRuns) {
  auto plan = SumPlan(
      JoinPlan(ScanPlan("users"), ScanPlan("clicks"), "uid", "uid_ref"),
      Col("weight"));
  const std::vector<size_t> none;
  ExecOptions opts;
  opts.private_table = "users";
  opts.sample_rows = &none;
  opts.partitions = 2;
  auto a = executor_->Execute(plan, opts);
  auto b = executor_->Execute(plan, opts);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.value().partition_outputs, b.value().partition_outputs);
}

}  // namespace
}  // namespace upa::rel
