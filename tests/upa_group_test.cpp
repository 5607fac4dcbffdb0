#include "upa/group.h"

#include <gtest/gtest.h>

#include <memory>
#include <numeric>

#include "upa/runner.h"
#include "upa/simple_query.h"

namespace upa::core {
namespace {

/// The sweep's estimate for group size k (its last entry).
GroupSensitivityEstimate EstimateAt(std::span<const double> neighbours,
                                    double f_x, size_t k) {
  return GroupSensitivitySweep(neighbours, f_x, k).back();
}

TEST(GroupSensitivityTest, K1EqualsMaxInfluence) {
  std::vector<double> neighbours{9.0, 10.5, 10.0, 7.0};  // f_x = 10
  auto est = EstimateAt(neighbours, 10.0, 1);
  EXPECT_DOUBLE_EQ(est.sensitivity, 3.0);  // |7 - 10|
  EXPECT_EQ(est.group_size, 1u);
  ASSERT_EQ(est.top_influences.size(), 1u);
  EXPECT_DOUBLE_EQ(est.top_influences[0], 3.0);
}

TEST(GroupSensitivityTest, KSumsTopInfluences) {
  std::vector<double> neighbours{9.0, 10.5, 10.0, 7.0};
  auto est = EstimateAt(neighbours, 10.0, 2);
  EXPECT_DOUBLE_EQ(est.sensitivity, 3.0 + 1.0);
  auto est3 = EstimateAt(neighbours, 10.0, 3);
  EXPECT_DOUBLE_EQ(est3.sensitivity, 3.0 + 1.0 + 0.5);
}

TEST(GroupSensitivityTest, KLargerThanSampleSaturates) {
  std::vector<double> neighbours{9.0, 11.0};
  auto est = EstimateAt(neighbours, 10.0, 10);
  EXPECT_DOUBLE_EQ(est.sensitivity, 2.0);
  EXPECT_EQ(est.top_influences.size(), 2u);
}

TEST(GroupSensitivityTest, RangeIsCenteredOnFx) {
  std::vector<double> neighbours{8.0, 12.0};
  auto est = EstimateAt(neighbours, 10.0, 1);
  EXPECT_DOUBLE_EQ(est.out_range.lo, 8.0);
  EXPECT_DOUBLE_EQ(est.out_range.hi, 12.0);
}

TEST(GroupSensitivityTest, SweepIsMonotoneNonDecreasing) {
  Rng rng(5);
  std::vector<double> neighbours(500);
  for (auto& o : neighbours) o = 100.0 + rng.Normal(0.0, 2.0);
  auto sweep = GroupSensitivitySweep(neighbours, 100.0, 20);
  ASSERT_EQ(sweep.size(), 20u);
  for (size_t k = 1; k < sweep.size(); ++k) {
    EXPECT_GE(sweep[k].sensitivity, sweep[k - 1].sensitivity) << "k=" << k;
    EXPECT_EQ(sweep[k].group_size, k + 1);
  }
}

// Integration: for a counting query, group sensitivity of k records is
// exactly k (each record's influence is 1).
TEST(GroupSensitivityTest, CountQueryGroupSensitivityIsK) {
  engine::ExecContext ctx(engine::ExecConfig{.threads = 2});
  SimpleQuerySpec<int> spec;
  spec.name = "group-count";
  spec.ctx = &ctx;
  auto records = std::make_shared<std::vector<int>>(3000, 0);
  spec.records = records;
  spec.map_record = [](const int&) { return Vec{1.0}; };
  spec.sample_domain = [](Rng& rng) {
    return static_cast<int>(rng.UniformU64(100));
  };

  UpaConfig cfg;
  cfg.sample_n = 200;
  cfg.add_noise = false;
  cfg.enable_enforcer = false;
  UpaRunner runner(cfg);
  auto result = runner.Run(MakeSimpleQuery(std::move(spec)), 1);
  ASSERT_TRUE(result.ok());

  for (size_t k : {1u, 5u, 20u}) {
    auto est = EstimateAt(result.value().neighbour_outputs,
                          result.value().raw_output, k);
    EXPECT_DOUBLE_EQ(est.sensitivity, static_cast<double>(k)) << "k=" << k;
  }
}

// Ground-truth bound property: for an additive sum query, removing the k
// largest records changes the output by exactly the estimate (when those
// records are in the sample).
TEST(GroupSensitivityTest, MatchesExactGroupRemovalOnSumQuery) {
  engine::ExecContext ctx(engine::ExecConfig{.threads = 2});
  auto records = std::make_shared<std::vector<double>>();
  Rng rng(9);
  for (int i = 0; i < 800; ++i) records->push_back(rng.UniformDouble(0, 5));

  SimpleQuerySpec<double> spec;
  spec.name = "group-sum";
  spec.ctx = &ctx;
  spec.records = records;
  spec.map_record = [](const double& v) { return Vec{v}; };
  spec.sample_domain = [](Rng& r) { return r.UniformDouble(0, 5); };

  UpaConfig cfg;
  cfg.sample_n = 800;  // sample everything → estimates become exact
  cfg.add_noise = false;
  cfg.enable_enforcer = false;
  UpaRunner runner(cfg);
  auto result = runner.Run(MakeSimpleQuery(std::move(spec)), 2);
  ASSERT_TRUE(result.ok());

  const size_t k = 3;
  auto est = EstimateAt(result.value().neighbour_outputs,
                        result.value().raw_output, k);
  // Exact: sum of the k largest record values... except additions (fresh
  // domain records) can exceed the k-th largest record. The estimate must
  // be at least the removal-side exact value.
  std::vector<double> sorted = *records;
  std::sort(sorted.begin(), sorted.end(), std::greater<>());
  double exact_removal = sorted[0] + sorted[1] + sorted[2];
  EXPECT_GE(est.sensitivity, exact_removal - 1e-9);
  EXPECT_LE(est.sensitivity, exact_removal + 15.0);  // 3 additions ≤ 15
}

}  // namespace
}  // namespace upa::core
