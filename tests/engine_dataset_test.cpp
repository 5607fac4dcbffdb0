#include "engine/dataset.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "common/rng.h"

namespace upa::engine {
namespace {

ExecContext& Ctx() {
  static ExecContext ctx(ExecConfig{.threads = 4, .default_partitions = 4});
  return ctx;
}

std::vector<int> Iota(int n) {
  std::vector<int> v(n);
  std::iota(v.begin(), v.end(), 0);
  return v;
}

TEST(DatasetTest, FromVectorPreservesAllElements) {
  auto ds = Dataset<int>::FromVector(&Ctx(), Iota(100), 7);
  EXPECT_EQ(ds.NumPartitions(), 7u);
  EXPECT_EQ(ds.Count(), 100u);
  auto collected = ds.Collect();
  std::sort(collected.begin(), collected.end());
  EXPECT_EQ(collected, Iota(100));
}

TEST(DatasetTest, FromVectorEmptyDataset) {
  auto ds = Dataset<int>::FromVector(&Ctx(), {}, 3);
  EXPECT_EQ(ds.Count(), 0u);
  EXPECT_TRUE(ds.Collect().empty());
}

TEST(DatasetTest, FromVectorMorePartitionsThanElements) {
  auto ds = Dataset<int>::FromVector(&Ctx(), {1, 2}, 10);
  EXPECT_EQ(ds.Count(), 2u);
}

TEST(DatasetTest, DefaultPartitionCountComesFromContext) {
  auto ds = Dataset<int>::FromVector(&Ctx(), Iota(10));
  EXPECT_EQ(ds.NumPartitions(), 4u);
}

TEST(DatasetTest, MapTransformsEveryElement) {
  auto ds = Dataset<int>::FromVector(&Ctx(), Iota(50), 4);
  auto doubled = ds.Map([](const int& v) { return v * 2; });
  auto out = doubled.Collect();
  std::sort(out.begin(), out.end());
  for (int i = 0; i < 50; ++i) EXPECT_EQ(out[i], 2 * i);
}

TEST(DatasetTest, MapCanChangeType) {
  auto ds = Dataset<int>::FromVector(&Ctx(), {1, 22, 333}, 2);
  auto strs = ds.Map([](const int& v) { return std::to_string(v); });
  auto out = strs.Collect();
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, (std::vector<std::string>{"1", "22", "333"}));
}

TEST(DatasetTest, FilterKeepsMatching) {
  auto ds = Dataset<int>::FromVector(&Ctx(), Iota(100), 4);
  auto evens = ds.Filter([](const int& v) { return v % 2 == 0; });
  EXPECT_EQ(evens.Count(), 50u);
  for (int v : evens.Collect()) EXPECT_EQ(v % 2, 0);
}

TEST(DatasetTest, FilterAllOut) {
  auto ds = Dataset<int>::FromVector(&Ctx(), Iota(10), 2);
  auto none = ds.Filter([](const int&) { return false; });
  EXPECT_EQ(none.Count(), 0u);
}

TEST(DatasetTest, ReduceSumsAcrossPartitions) {
  auto ds = Dataset<int>::FromVector(&Ctx(), Iota(1000), 8);
  int sum = ds.Reduce([](int a, int b) { return a + b; }, 0);
  EXPECT_EQ(sum, 999 * 1000 / 2);
}

TEST(DatasetTest, ReduceEmptyReturnsIdentity) {
  auto ds = Dataset<int>::FromVector(&Ctx(), {}, 4);
  EXPECT_EQ(ds.Reduce([](int a, int b) { return a + b; }, 0), 0);
}

TEST(DatasetTest, ReduceSingletonIsThatElement) {
  auto ds = Dataset<int>::FromVector(&Ctx(), {13}, 4);
  EXPECT_EQ(ds.Reduce([](int a, int b) { return a + b; }, 0), 13);
}

TEST(DatasetTest, ReduceWithMaxMonoid) {
  auto ds = Dataset<int>::FromVector(&Ctx(), {3, 9, 1, 7}, 3);
  int m = ds.Reduce([](int a, int b) { return std::max(a, b); },
                    std::numeric_limits<int>::min());
  EXPECT_EQ(m, 9);
}

TEST(DatasetTest, ChainedPipeline) {
  auto ds = Dataset<int>::FromVector(&Ctx(), Iota(100), 5);
  double result = ds.Filter([](const int& v) { return v % 3 == 0; })
                      .Map([](const int& v) { return v * 0.5; })
                      .Reduce([](double a, double b) { return a + b; }, 0.0);
  double expect = 0;
  for (int v = 0; v < 100; v += 3) expect += v * 0.5;
  EXPECT_DOUBLE_EQ(result, expect);
}

TEST(DatasetTest, MetricsCountTasksAndRecords) {
  ExecContext local(ExecConfig{.threads = 2, .default_partitions = 3});
  auto ds = Dataset<int>::FromVector(&local, Iota(30), 3);
  auto before = local.metrics().Snapshot();
  ds.Map([](const int& v) { return v + 1; }).Collect();
  auto delta = local.metrics().Snapshot() - before;
  EXPECT_EQ(delta.tasks_launched, 3u);
  EXPECT_EQ(delta.records_processed, 30u);
}

// Associativity/commutativity property sweep over partition counts: the
// reduce result must not depend on partitioning (the property UPA's whole
// design rests on, paper §II-C).
class PartitionInvarianceSweep : public ::testing::TestWithParam<int> {};

TEST_P(PartitionInvarianceSweep, ReduceIndependentOfPartitioning) {
  Rng rng(42);
  std::vector<double> values(500);
  for (auto& v : values) v = rng.UniformDouble(-10.0, 10.0);
  auto sum = [](double a, double b) { return a + b; };

  auto base = Dataset<double>::FromVector(&Ctx(), values, 1);
  double expected = base.Reduce(sum, 0.0);

  auto ds = Dataset<double>::FromVector(&Ctx(), values,
                                        static_cast<size_t>(GetParam()));
  EXPECT_NEAR(ds.Reduce(sum, 0.0), expected, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Partitions, PartitionInvarianceSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 64));

}  // namespace
}  // namespace upa::engine
