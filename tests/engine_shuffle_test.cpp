#include "engine/shuffle.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"

namespace upa::engine {
namespace {

using KV = std::pair<int, int>;

ExecContext& Ctx() {
  static ExecContext ctx(ExecConfig{.threads = 4, .default_partitions = 4});
  return ctx;
}

TEST(ShuffleByKeyTest, EqualKeysColocate) {
  std::vector<KV> data;
  for (int i = 0; i < 100; ++i) data.push_back({i % 10, i});
  auto ds = Dataset<KV>::FromVector(&Ctx(), data, 5);
  auto shuffled = ShuffleByKey(ds, 3);
  EXPECT_EQ(shuffled.NumPartitions(), 3u);
  EXPECT_EQ(shuffled.Count(), 100u);
  // Every key must live in exactly one partition.
  std::map<int, std::set<size_t>> key_parts;
  for (size_t p = 0; p < shuffled.NumPartitions(); ++p) {
    for (const auto& [k, v] : shuffled.partition(p)) key_parts[k].insert(p);
  }
  for (const auto& [k, parts] : key_parts) {
    EXPECT_EQ(parts.size(), 1u) << "key " << k;
  }
}

TEST(ShuffleByKeyTest, CountsShuffleMetrics) {
  ExecContext local(ExecConfig{.threads = 2, .default_partitions = 2});
  std::vector<KV> data{{1, 1}, {2, 2}, {3, 3}};
  auto ds = Dataset<KV>::FromVector(&local, data, 2);
  auto before = local.metrics().Snapshot();
  ShuffleByKey(ds, 2);
  auto delta = local.metrics().Snapshot() - before;
  EXPECT_EQ(delta.shuffle_rounds, 1u);
  EXPECT_EQ(delta.shuffle_records, 3u);
}

TEST(HashJoinTest, InnerJoinProducesAllPairs) {
  std::vector<std::pair<int, std::string>> left{{1, "a"}, {2, "b"}, {2, "c"}};
  std::vector<std::pair<int, double>> right{{2, 0.5}, {2, 1.5}, {3, 9.0}};
  auto l = Dataset<std::pair<int, std::string>>::FromVector(&Ctx(), left, 2);
  auto r = Dataset<std::pair<int, double>>::FromVector(&Ctx(), right, 2);
  auto joined = HashJoin(l, r, 3);
  auto out = joined.Collect();
  // key 2: 2 left x 2 right = 4 pairs; keys 1 and 3 don't match.
  EXPECT_EQ(out.size(), 4u);
  for (const auto& [k, vw] : out) {
    EXPECT_EQ(k, 2);
    EXPECT_TRUE(vw.first == "b" || vw.first == "c");
    EXPECT_TRUE(vw.second == 0.5 || vw.second == 1.5);
  }
}

TEST(HashJoinTest, NoMatchesYieldsEmpty) {
  std::vector<KV> left{{1, 1}};
  std::vector<KV> right{{2, 2}};
  auto l = Dataset<KV>::FromVector(&Ctx(), left, 1);
  auto r = Dataset<KV>::FromVector(&Ctx(), right, 1);
  EXPECT_EQ(HashJoin(l, r).Count(), 0u);
}

TEST(HashJoinTest, TriggersTwoShuffleRounds) {
  // One per side — UPA's joinDP doubles this (asserted in upa tests).
  ExecContext local(ExecConfig{.threads = 2, .default_partitions = 2});
  std::vector<KV> data{{1, 1}, {2, 2}};
  auto l = Dataset<KV>::FromVector(&local, data, 2);
  auto r = Dataset<KV>::FromVector(&local, data, 2);
  auto before = local.metrics().Snapshot();
  HashJoin(l, r, 2);
  auto delta = local.metrics().Snapshot() - before;
  EXPECT_EQ(delta.shuffle_rounds, 2u);
}

// Join-cardinality property sweep: |join| == sum over keys of
// left_count(k) * right_count(k), independent of partitioning.
class JoinCardinalitySweep : public ::testing::TestWithParam<int> {};

TEST_P(JoinCardinalitySweep, MatchesAnalyticCardinality) {
  Rng rng(200 + GetParam());
  std::vector<KV> left, right;
  std::map<int, int> lc, rc;
  for (int i = 0; i < 300; ++i) {
    int k = static_cast<int>(rng.UniformU64(20));
    left.push_back({k, i});
    lc[k]++;
  }
  for (int i = 0; i < 200; ++i) {
    int k = static_cast<int>(rng.UniformU64(20));
    right.push_back({k, i});
    rc[k]++;
  }
  size_t expected = 0;
  for (auto& [k, c] : lc) expected += static_cast<size_t>(c) * rc[k];

  auto l = Dataset<KV>::FromVector(&Ctx(), left, GetParam());
  auto r = Dataset<KV>::FromVector(&Ctx(), right, 3);
  EXPECT_EQ(HashJoin(l, r, GetParam()).Count(), expected);
}

INSTANTIATE_TEST_SUITE_P(Partitions, JoinCardinalitySweep,
                         ::testing::Values(1, 2, 4, 7, 16));

}  // namespace
}  // namespace upa::engine
