// End-to-end tests of UpaRunner (Algorithm 1 + iDP enforcement) on small
// synthetic map/reduce queries built with MakeSimpleQuery.
#include "upa/runner.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <numeric>
#include <vector>

#include "upa/simple_query.h"

namespace upa::core {
namespace {

engine::ExecContext& Ctx() {
  static engine::ExecContext ctx(
      engine::ExecConfig{.threads = 2, .default_partitions = 4});
  return ctx;
}

/// A counting query over `n` records: M(r) = [1], f(x) = |x|.
QueryInstance CountQuery(size_t n, const std::string& name = "count") {
  SimpleQuerySpec<int> spec;
  spec.name = name;
  spec.ctx = &Ctx();
  auto records = std::make_shared<std::vector<int>>(n, 0);
  std::iota(records->begin(), records->end(), 0);
  spec.records = records;
  spec.map_record = [](const int&) { return Vec{1.0}; };
  spec.sample_domain = [](Rng& rng) {
    return static_cast<int>(rng.UniformU64(1000000));
  };
  return MakeSimpleQuery(std::move(spec));
}

/// A sum query over given values: M(r) = [r], f(x) = Σ.
QueryInstance SumQuery(std::shared_ptr<std::vector<double>> values,
                       const std::string& name = "sum") {
  SimpleQuerySpec<double> spec;
  spec.name = name;
  spec.ctx = &Ctx();
  spec.records = values;
  spec.map_record = [](const double& v) { return Vec{v}; };
  spec.sample_domain = [](Rng& rng) { return rng.UniformDouble(0.0, 1.0); };
  return MakeSimpleQuery(std::move(spec));
}

UpaConfig NoNoiseConfig() {
  UpaConfig cfg;
  cfg.sample_n = 200;
  cfg.add_noise = false;
  return cfg;
}

TEST(UpaRunnerTest, CountQueryRawOutputIsExact) {
  UpaRunner runner(NoNoiseConfig());
  auto result = runner.Run(CountQuery(5000), /*seed=*/1);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result.value().raw_output, 5000.0);
  EXPECT_EQ(result.value().sample_size, 200u);
}

TEST(UpaRunnerTest, CountSensitivityIsNearOne) {
  // Every record's influence on a count is exactly 1; the influence-
  // percentile rule must infer ~1 (the paper's TPCH1 case: ~1e-9 error).
  UpaRunner runner(NoNoiseConfig());
  auto result = runner.Run(CountQuery(5000), 2);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result.value().local_sensitivity, 1.0, 1e-6);
}

TEST(UpaRunnerTest, OutputRangeRuleGivesWiderCountSensitivity) {
  UpaConfig cfg = NoNoiseConfig();
  cfg.sensitivity_rule = SensitivityRule::kOutputRange;
  UpaRunner runner(cfg);
  auto result = runner.Run(CountQuery(5000), 2);
  ASSERT_TRUE(result.ok());
  // Outputs are {N-1, N+1} half/half → fitted sd 1 → width ≈ 2·2.326.
  EXPECT_NEAR(result.value().local_sensitivity, 4.652, 0.05);
  EXPECT_DOUBLE_EQ(result.value().out_range.width(),
                   result.value().local_sensitivity);
}

TEST(UpaRunnerTest, NeighbourOutputsHaveTwoNEntries) {
  UpaRunner runner(NoNoiseConfig());
  auto result = runner.Run(CountQuery(5000), 3);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().neighbour_outputs.size(), 400u);  // n removals + n additions
  for (double o : result.value().neighbour_outputs) {
    EXPECT_TRUE(o == 4999.0 || o == 5001.0) << o;
  }
}

TEST(UpaRunnerTest, SmallDatasetSamplesEverything) {
  UpaRunner runner(NoNoiseConfig());
  auto result = runner.Run(CountQuery(50), 4);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().sample_size, 50u);
  EXPECT_DOUBLE_EQ(result.value().raw_output, 50.0);
}

TEST(UpaRunnerTest, SensitivityHintReleasesBitIdentically) {
  // A hinted run (sensitivity/range reused from a prior full run of the
  // same shape) must skip the neighbour evaluation yet release the exact
  // same bits: enforcer, clamp and noise are untouched by the hint.
  UpaConfig cfg = NoNoiseConfig();
  cfg.add_noise = true;
  UpaRunner full(cfg), hinted(cfg);
  auto reference = full.Run(CountQuery(5000), 11);
  ASSERT_TRUE(reference.ok());

  SensitivityHint hint{reference.value().local_sensitivity,
                       reference.value().out_range,
                       reference.value().degenerate_sensitivity};
  // A hinted run asks execute_phases for no domain records at all.
  QueryInstance query = CountQuery(5000);
  std::vector<size_t> domain_requests;
  query.execute_phases = [inner = query.execute_phases, &domain_requests](
                             std::span<const size_t> sample, size_t parts,
                             size_t num_domain, uint64_t seed) {
    domain_requests.push_back(num_domain);
    MappedBatches out = inner(sample, parts, num_domain, seed);
    EXPECT_EQ(out.domain_mapped.values.size(), num_domain * out.dim);
    return out;
  };
  auto fast = hinted.Run(query, 11, &hint);
  ASSERT_TRUE(fast.ok());
  EXPECT_EQ(domain_requests, std::vector<size_t>{0});
  EXPECT_DOUBLE_EQ(fast.value().released_output,
                   reference.value().released_output);
  EXPECT_DOUBLE_EQ(fast.value().raw_output, reference.value().raw_output);
  EXPECT_DOUBLE_EQ(fast.value().local_sensitivity,
                   reference.value().local_sensitivity);
  EXPECT_EQ(fast.value().partition_outputs,
            reference.value().partition_outputs);
  // The skipped work is observable: no neighbour outputs were computed.
  EXPECT_TRUE(fast.value().neighbour_outputs.empty());
  EXPECT_EQ(reference.value().neighbour_outputs.size(), 400u);
}

// A record may map to the empty Vec, the reducer's identity (a dp_api UDF
// can return one). In the flat batches it stays the identity: it adds
// nothing, and a reduction over identity records alone is the identity,
// which the query's scalarize sees as an empty Vec, not as zeros.
TEST(UpaRunnerTest, EmptyMappedRecordsStayTheIdentity) {
  // Records 0..9, all sampled (S' is empty); odd ones map to the identity.
  SimpleQuerySpec<int> spec;
  spec.name = "identity";
  spec.ctx = &Ctx();
  auto records = std::make_shared<std::vector<int>>(10);
  std::iota(records->begin(), records->end(), 0);
  spec.records = records;
  auto map = [](const int& r) {
    return r % 2 == 0 ? Vec{double(r), 2.0 * r} : Vec{};
  };
  spec.map_record = map;
  spec.sample_domain = [](Rng& rng) {
    return static_cast<int>(rng.UniformU64(10));
  };
  spec.scalarize = [](const Vec& v) { return v.empty() ? 42.0 : v[0] + v[1]; };

  UpaRunner runner(NoNoiseConfig());
  auto result = runner.Run(MakeSimpleQuery(spec), 3);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const UpaRunResult& r = result.value();
  EXPECT_EQ(r.reduced, (Vec{20.0, 40.0}));
  EXPECT_DOUBLE_EQ(r.raw_output, 60.0);
  // Partition 1 holds only odd records: its reduced value is the identity.
  EXPECT_EQ(r.partition_outputs, (std::vector<double>{60.0, 42.0}));
  ASSERT_EQ(r.neighbour_outputs.size(), 20u);
  for (size_t i = 0; i < 10; ++i) {
    const double want = i % 2 == 0 ? 60.0 - 3.0 * i : 60.0;
    EXPECT_DOUBLE_EQ(r.neighbour_outputs[i], want) << "removal " << i;
  }

  // Every record maps to the identity: so does every reduction.
  spec.map_record = [](const int&) { return Vec{}; };
  UpaRunner empty_runner(NoNoiseConfig());
  auto empty = empty_runner.Run(MakeSimpleQuery(spec), 3);
  ASSERT_TRUE(empty.ok()) << empty.status().ToString();
  EXPECT_TRUE(empty.value().reduced.empty());
  EXPECT_DOUBLE_EQ(empty.value().raw_output, 42.0);
  EXPECT_EQ(empty.value().partition_outputs,
            (std::vector<double>{42.0, 42.0}));
  for (double y : empty.value().neighbour_outputs) EXPECT_DOUBLE_EQ(y, 42.0);
}

TEST(UpaRunnerTest, SharedEnforcerSeesOtherRunnersRegistrations) {
  UpaConfig cfg = NoNoiseConfig();
  UpaRunner a(cfg), b(cfg);
  b.share_enforcer(a.shared_enforcer());
  ASSERT_TRUE(a.Run(CountQuery(5000, "shared-count"), 1).ok());
  EXPECT_EQ(b.enforcer().registry_size(), 1u);
  // The same query through the other runner is a repeat against the
  // shared registry: partition outputs collide and the enforcer reacts.
  auto repeat = b.Run(CountQuery(5000, "shared-count"), 1);
  ASSERT_TRUE(repeat.ok());
  EXPECT_TRUE(repeat.value().enforcer.attack_suspected);
  EXPECT_EQ(a.enforcer().registry_size(), 2u);
}

TEST(UpaRunnerTest, DeterministicForSameSeed) {
  UpaConfig cfg = NoNoiseConfig();
  cfg.add_noise = true;
  cfg.enable_enforcer = false;
  auto values = std::make_shared<std::vector<double>>();
  Rng rng(99);
  for (int i = 0; i < 3000; ++i) values->push_back(rng.UniformDouble(0, 10));

  UpaRunner r1(cfg), r2(cfg);
  auto a = r1.Run(SumQuery(values), 7);
  auto b = r2.Run(SumQuery(values), 7);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_DOUBLE_EQ(a.value().released_output, b.value().released_output);
  EXPECT_DOUBLE_EQ(a.value().local_sensitivity, b.value().local_sensitivity);
}

TEST(UpaRunnerTest, DifferentSeedsPerturbDifferently) {
  UpaConfig cfg = NoNoiseConfig();
  cfg.add_noise = true;
  cfg.enable_enforcer = false;
  UpaRunner runner(cfg);
  auto a = runner.Run(CountQuery(5000), 10);
  auto b = runner.Run(CountQuery(5000), 11);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(a.value().released_output, b.value().released_output);
}

TEST(UpaRunnerTest, SumSensitivityTracksLargestValues) {
  // Values in [0, 1]: the largest influence of any record is ~1, so the
  // inferred sensitivity must be around the top of that range, never 10x.
  auto values = std::make_shared<std::vector<double>>();
  Rng rng(123);
  for (int i = 0; i < 5000; ++i) values->push_back(rng.UniformDouble(0, 1));
  UpaRunner runner(NoNoiseConfig());
  auto result = runner.Run(SumQuery(values), 5);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result.value().local_sensitivity, 0.5);
  EXPECT_LT(result.value().local_sensitivity, 2.0);
}

TEST(UpaRunnerTest, OutRangeContainsRawOutputCenter) {
  UpaRunner runner(NoNoiseConfig());
  auto result = runner.Run(CountQuery(2000), 6);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().out_range.Contains(result.value().raw_output));
}

TEST(UpaRunnerTest, ReleasedOutputIsNoisyAroundClamped) {
  UpaConfig cfg = NoNoiseConfig();
  cfg.add_noise = true;
  cfg.epsilon = 0.1;
  cfg.enable_enforcer = false;
  UpaRunner runner(cfg);
  auto result = runner.Run(CountQuery(5000), 8);
  ASSERT_TRUE(result.ok());
  // Noise scale ≈ 1/0.1 = 10; the release should be within ~200 of raw
  // with overwhelming probability.
  EXPECT_NEAR(result.value().released_output, 5000.0, 200.0);
  EXPECT_NE(result.value().released_output, 5000.0);
}

TEST(UpaRunnerTest, RepeatedIdenticalQueryTriggersEnforcer) {
  UpaConfig cfg = NoNoiseConfig();
  cfg.enable_enforcer = true;
  UpaRunner runner(cfg);
  auto first = runner.Run(CountQuery(5000, "repeat"), 20);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first.value().enforcer.attack_suspected);

  // Same query, same dataset, same seed → identical partition outputs →
  // Algorithm 2 Case 2: records are removed.
  auto second = runner.Run(CountQuery(5000, "repeat"), 20);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.value().enforcer.attack_suspected);
  EXPECT_GE(second.value().enforcer.records_removed, 2u);
  // The released raw output reflects the removals.
  EXPECT_LT(second.value().raw_output, 5000.0);
}

TEST(UpaRunnerTest, DistinctQueriesDoNotTriggerEnforcer) {
  UpaConfig cfg = NoNoiseConfig();
  UpaRunner runner(cfg);
  auto a = runner.Run(CountQuery(5000), 30);
  auto values = std::make_shared<std::vector<double>>(3000, 2.5);
  auto b = runner.Run(SumQuery(values), 31);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_FALSE(b.value().enforcer.attack_suspected);
  EXPECT_EQ(b.value().enforcer.prior_queries_checked, 1u);
}

TEST(UpaRunnerTest, PartitionOutputsSumToRawForAdditiveQuery) {
  UpaConfig cfg = NoNoiseConfig();
  cfg.enable_enforcer = false;
  UpaRunner runner(cfg);
  auto result = runner.Run(CountQuery(4000), 40);
  ASSERT_TRUE(result.ok());
  double sum = 0;
  for (double p : result.value().partition_outputs) sum += p;
  EXPECT_DOUBLE_EQ(sum, result.value().raw_output);
}

TEST(UpaRunnerTest, InvalidQueriesAreRejected) {
  UpaRunner runner;
  QueryInstance empty;
  empty.name = "empty";
  auto r = runner.Run(empty, 1);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(UpaRunnerTest, PhaseTimingsArePopulated) {
  UpaRunner runner(NoNoiseConfig());
  auto result = runner.Run(CountQuery(3000), 50);
  ASSERT_TRUE(result.ok());
  const auto& s = result.value().seconds;
  EXPECT_GE(s.map, 0.0);
  EXPECT_GT(s.total, 0.0);
  EXPECT_GE(s.total, s.map);
}

// Degenerate queries: every record maps to the identity contribution, so
// all 2n sampled neighbours produce exactly f(x). Without the floor the
// runner would infer local_sensitivity == 0 and release the exact clamped
// value with Laplace scale 0 — a noiseless release of a private value.
TEST(UpaRunnerTest, ConstantQuerySensitivityIsFlooredNotZero) {
  SimpleQuerySpec<double> spec;
  spec.name = "constant";
  spec.ctx = &Ctx();
  spec.records = std::make_shared<std::vector<double>>(2000, 1.0);
  spec.map_record = [](const double&) { return Vec{0.0}; };
  spec.sample_domain = [](Rng& rng) { return rng.UniformDouble(0.0, 1.0); };

  UpaConfig cfg;
  cfg.sample_n = 200;
  cfg.add_noise = true;
  cfg.enable_enforcer = false;
  UpaRunner runner(cfg);
  auto result = runner.Run(MakeSimpleQuery(std::move(spec)), 9);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().degenerate_sensitivity);
  EXPECT_EQ(result.value().local_sensitivity, kMinSensitivity);
  EXPECT_GT(result.value().local_sensitivity, 0.0);
  // The clamp range widens with the floor so the raw output stays inside.
  EXPECT_TRUE(result.value().out_range.Contains(result.value().raw_output));
  // The release is still noised (scale kMinSensitivity/ε), not exact.
  EXPECT_NE(result.value().released_output, result.value().raw_output);
}

TEST(UpaRunnerTest, NonDegenerateQueryDoesNotSetFlag) {
  UpaRunner runner(NoNoiseConfig());
  auto result = runner.Run(CountQuery(5000), 1);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result.value().degenerate_sensitivity);
}

TEST(UpaRunnerTest, DegenerateOutputRangeRuleKeepsWidthInvariant) {
  SimpleQuerySpec<double> spec;
  spec.name = "constant3";
  spec.ctx = &Ctx();
  spec.records = std::make_shared<std::vector<double>>(2000, 1.0);
  spec.map_record = [](const double&) { return Vec{0.0}; };
  spec.sample_domain = [](Rng& rng) { return rng.UniformDouble(0.0, 1.0); };

  UpaConfig cfg = NoNoiseConfig();
  cfg.enable_enforcer = false;
  cfg.sensitivity_rule = SensitivityRule::kOutputRange;
  UpaRunner runner(cfg);
  auto result = runner.Run(MakeSimpleQuery(std::move(spec)), 9);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().degenerate_sensitivity);
  EXPECT_DOUBLE_EQ(result.value().out_range.width(),
                   result.value().local_sensitivity);
}

// Sensitivity upper-bound property: across seeds, the inferred sensitivity
// times the clamp guarantees |release centers| of any neighbouring pair
// stay within the range (the basis of the §IV-C proof).
class ClampSoundnessSweep : public ::testing::TestWithParam<int> {};

TEST_P(ClampSoundnessSweep, NeighbourOutputsMostlyInsideRange) {
  auto values = std::make_shared<std::vector<double>>();
  Rng rng(700 + GetParam());
  for (int i = 0; i < 4000; ++i) values->push_back(rng.Exponential(1.0));
  UpaConfig cfg = NoNoiseConfig();
  cfg.sample_n = 500;
  UpaRunner runner(cfg);
  auto result = runner.Run(SumQuery(values), 1000 + GetParam());
  ASSERT_TRUE(result.ok());
  const auto& r = result.value();
  size_t inside = 0;
  for (double o : r.neighbour_outputs) {
    if (r.out_range.Contains(o)) ++inside;
  }
  // The paper's coverage claim: ≥ 98.9% of neighbour outputs covered for
  // well-behaved (non-outlier-dominated) queries.
  EXPECT_GT(static_cast<double>(inside) / r.neighbour_outputs.size(), 0.95);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClampSoundnessSweep, ::testing::Range(0, 6));

}  // namespace
}  // namespace upa::core
