// Functional tests of the multi-tenant UpaService: admission control,
// per-dataset sensitivity caching and epochs, two-phase budget
// charge/refund, and the stats report.
#include "service/service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "upa/simple_query.h"

namespace upa::service {
namespace {

engine::ExecContext& Ctx() {
  static engine::ExecContext ctx(
      engine::ExecConfig{.threads = 2, .default_partitions = 4});
  return ctx;
}

/// A counting query over `n` records: M(r) = [1], f(x) = |x|.
core::QueryInstance CountQuery(size_t n, const std::string& name = "count") {
  core::SimpleQuerySpec<int> spec;
  spec.name = name;
  spec.ctx = &Ctx();
  auto records = std::make_shared<std::vector<int>>(n, 0);
  std::iota(records->begin(), records->end(), 0);
  spec.records = records;
  spec.map_record = [](const int&) { return core::Vec{1.0}; };
  spec.sample_domain = [](Rng& rng) {
    return static_cast<int>(rng.UniformU64(1000000));
  };
  return core::MakeSimpleQuery(std::move(spec));
}

/// A count query whose map phase blocks until `gate` opens — used to pin a
/// request in-flight while the test probes queueing behaviour.
core::QueryInstance GatedQuery(size_t n, std::shared_ptr<std::atomic<bool>> gate,
                               const std::string& name = "gated") {
  core::SimpleQuerySpec<int> spec;
  spec.name = name;
  spec.ctx = &Ctx();
  auto records = std::make_shared<std::vector<int>>(n, 0);
  spec.records = records;
  spec.map_record = [gate](const int&) {
    while (!gate->load(std::memory_order_acquire)) std::this_thread::yield();
    return core::Vec{1.0};
  };
  spec.sample_domain = [](Rng& rng) {
    return static_cast<int>(rng.UniformU64(1000000));
  };
  return core::MakeSimpleQuery(std::move(spec));
}

ServiceConfig FastConfig() {
  ServiceConfig config;
  config.upa.sample_n = 100;
  config.upa.add_noise = false;
  return config;
}

QueryRequest MakeRequest(const std::string& tenant, const std::string& dataset,
                         core::QueryInstance query, uint64_t seed = 1) {
  QueryRequest request;
  request.tenant = tenant;
  request.dataset_id = dataset;
  request.query = std::move(query);
  request.epsilon = 0.1;
  request.seed = seed;
  return request;
}

TEST(ServiceTest, ExecutesCountQueryEndToEnd) {
  UpaService service(&Ctx(), FastConfig());
  auto result = service.Execute(MakeRequest("alice", "ds", CountQuery(5000)));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const QueryResponse& response = result.value();
  // No noise: the release is the clamped exact count, and the count query's
  // output range is centred on 5000 with sensitivity ~1.
  EXPECT_NEAR(response.released, 5000.0, 2.0);
  EXPECT_NEAR(response.local_sensitivity, 1.0, 1e-6);
  EXPECT_DOUBLE_EQ(response.epsilon, 0.1);
  EXPECT_FALSE(response.sensitivity_cache_hit);
  EXPECT_EQ(response.dataset_epoch, 0u);
  EXPECT_NEAR(service.accountant().Spent("ds"), 0.1, 1e-12);
}

TEST(ServiceTest, RepeatedFingerprintHitsSensitivityCache) {
  UpaService service(&Ctx(), FastConfig());
  auto first = service.Execute(MakeRequest("a", "ds", CountQuery(5000), 1));
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first.value().sensitivity_cache_hit);
  EXPECT_EQ(service.CachedSensitivities("ds"), 1u);

  // Same query name → same derived fingerprint → cached sensitivity reused.
  auto second = service.Execute(MakeRequest("a", "ds", CountQuery(5000), 2));
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.value().sensitivity_cache_hit);
  EXPECT_DOUBLE_EQ(second.value().local_sensitivity,
                   first.value().local_sensitivity);
  EXPECT_EQ(service.CachedSensitivities("ds"), 1u);
}

TEST(ServiceTest, ExplicitFingerprintsAreDistinctCacheKeys) {
  UpaService service(&Ctx(), FastConfig());
  QueryRequest request = MakeRequest("a", "ds", CountQuery(5000), 1);
  request.fingerprint = 7;
  ASSERT_TRUE(service.Execute(request).ok());
  QueryRequest other = MakeRequest("a", "ds", CountQuery(5000), 2);
  other.fingerprint = 8;
  auto result = service.Execute(other);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result.value().sensitivity_cache_hit);
  EXPECT_EQ(service.CachedSensitivities("ds"), 2u);
}

TEST(ServiceTest, BumpEpochInvalidatesCachedSensitivities) {
  UpaService service(&Ctx(), FastConfig());
  ASSERT_TRUE(service.Execute(MakeRequest("a", "ds", CountQuery(5000), 1)).ok());
  EXPECT_EQ(service.CachedSensitivities("ds"), 1u);

  service.BumpEpoch("ds");
  EXPECT_EQ(service.Epoch("ds"), 1u);
  EXPECT_EQ(service.CachedSensitivities("ds"), 0u);

  auto after = service.Execute(MakeRequest("a", "ds", CountQuery(5000), 2));
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after.value().sensitivity_cache_hit);
  EXPECT_EQ(after.value().dataset_epoch, 1u);
}

TEST(ServiceTest, LruEvictsOldestFingerprint) {
  ServiceConfig config = FastConfig();
  config.budget_per_dataset = 100.0;
  UpaService service(&Ctx(), config);
  constexpr uint64_t kFingerprints =
      UpaService::kSensitivityCacheCapacity + 1;
  for (uint64_t fp = 1; fp <= kFingerprints; ++fp) {
    QueryRequest request = MakeRequest("a", "ds", CountQuery(2000), fp);
    request.fingerprint = fp;
    ASSERT_TRUE(service.Execute(request).ok());
  }
  EXPECT_EQ(service.CachedSensitivities("ds"),
            UpaService::kSensitivityCacheCapacity);
  // fp=1 was evicted: querying it again misses.
  QueryRequest request = MakeRequest("a", "ds", CountQuery(2000), 9);
  request.fingerprint = 1;
  auto result = service.Execute(request);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result.value().sensitivity_cache_hit);
}

TEST(ServiceTest, FailedRunRefundsItsCharge) {
  // The injected fault fails the run inside the runner, after the charge
  // (recoverable INVALID_ARGUMENT) — after the failure the budget must be
  // untouched.
  UpaService service(&Ctx(), FastConfig());
  ASSERT_TRUE(Failpoints::Instance()
                  .Activate("upa/phase_sample", "error(invalid_argument)")
                  .ok());
  auto result = service.Execute(MakeRequest("a", "ds", CountQuery(1000)));
  Failpoints::Instance().DeactivateAll();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_DOUBLE_EQ(service.accountant().Spent("ds"), 0.0);
  EXPECT_DOUBLE_EQ(service.accountant().Remaining("ds"),
                   service.config().budget_per_dataset);
}

// Every repeat of one COUNT on one dataset matches the registry's priors,
// so releases need more and more removals, until one goes out at the
// enforcer's removal cap. No release below the cap is counted; the one
// counted removed as many records as the cap allows.
TEST(ServiceTest, ReleaseAtTheRemovalCapIsCounted) {
  engine::ExecContext ctx(
      engine::ExecConfig{.threads = 2, .default_partitions = 4});
  ServiceConfig config = FastConfig();
  config.budget_per_dataset = 100.0;
  UpaService service(&ctx, config);
  auto capped = [&] {
    return ctx.metrics().Snapshot().counters["service/enforcer_capped"];
  };
  constexpr size_t kCap = core::RangeEnforcer::kMaxRemovals;
  size_t removed = 0;
  for (uint64_t seed = 1; seed <= 200 && capped() == 0; ++seed) {
    auto result =
        service.Execute(MakeRequest("a", "ds", CountQuery(5000), seed));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    removed = result.value().records_removed;
    if (removed < kCap) {
      EXPECT_EQ(capped(), 0u) << "release " << seed;
    }
  }
  EXPECT_GT(capped(), 0u);
  EXPECT_EQ(removed, kCap);
  EXPECT_NE(service.StatsReport().find("service/enforcer_capped"),
            std::string::npos);
}

TEST(ServiceTest, ExhaustedBudgetDeniesQueries) {
  ServiceConfig config = FastConfig();
  config.budget_per_dataset = 0.15;  // room for one 0.1 query, not two
  UpaService service(&Ctx(), config);
  ASSERT_TRUE(service.Execute(MakeRequest("a", "ds", CountQuery(1000), 1)).ok());
  auto denied = service.Execute(MakeRequest("a", "ds", CountQuery(1000), 2));
  ASSERT_FALSE(denied.ok());
  EXPECT_EQ(denied.status().code(), StatusCode::kOutOfRange);
  // The denied query spent nothing; other datasets are unaffected.
  EXPECT_NEAR(service.accountant().Spent("ds"), 0.1, 1e-12);
  ASSERT_TRUE(service.Execute(MakeRequest("a", "other", CountQuery(1000), 3)).ok());
}

TEST(ServiceTest, FullTenantBacklogRejectsWithResourceExhausted) {
  ServiceConfig config = FastConfig();
  config.max_queue_per_tenant = 1;
  auto gate = std::make_shared<std::atomic<bool>>(false);
  {
    UpaService service(&Ctx(), config);
    // First request dispatches and blocks on the gate; the tenant is then
    // `running`, so the second sits in its backlog (size 1 = the cap).
    auto running = service.Submit(
        MakeRequest("alice", "ds", GatedQuery(500, gate), 1));
    auto queued = service.Submit(
        MakeRequest("alice", "ds", GatedQuery(500, gate), 2));
    auto rejected = service.Submit(
        MakeRequest("alice", "ds", GatedQuery(500, gate), 3));
    auto status = rejected.get().status();
    EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
    // Another tenant is unaffected by alice's full backlog.
    auto other = service.Submit(MakeRequest("bob", "ds2", CountQuery(500), 4));
    gate->store(true, std::memory_order_release);
    EXPECT_TRUE(running.get().ok());
    EXPECT_TRUE(queued.get().ok());
    EXPECT_TRUE(other.get().ok());
  }  // destructor drains cleanly
}

TEST(ServiceTest, SingleSlotAdmissionStillCompletesAllTenants) {
  ServiceConfig config = FastConfig();
  config.max_in_flight = 1;
  UpaService service(&Ctx(), config);
  std::vector<std::future<Result<QueryResponse>>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(service.Submit(MakeRequest(
        "t" + std::to_string(i % 3), "d" + std::to_string(i % 3),
        CountQuery(1000), static_cast<uint64_t>(i + 1))));
  }
  for (auto& future : futures) {
    auto result = future.get();
    EXPECT_TRUE(result.ok()) << result.status().ToString();
  }
}

TEST(ServiceTest, StatsReportCoversTenantsDatasetsAndLatency) {
  engine::ExecContext ctx(engine::ExecConfig{.threads = 2});
  ServiceConfig config = FastConfig();
  UpaService service(&ctx, config);
  ASSERT_TRUE(service.Execute(MakeRequest("alice", "ds", CountQuery(2000))).ok());
  std::string report = service.StatsReport();
  EXPECT_NE(report.find("in_flight:"), std::string::npos) << report;
  EXPECT_NE(report.find("alice: submitted=1 completed=1"), std::string::npos)
      << report;
  EXPECT_NE(report.find("ds: epoch=0 queries=1"), std::string::npos) << report;
  EXPECT_NE(report.find("service/queries: 1"), std::string::npos) << report;
  EXPECT_NE(report.find("service/sens_cache_miss: 1"), std::string::npos)
      << report;
  EXPECT_NE(report.find("service/total"), std::string::npos) << report;
}

// Regression: a zero queue or in-flight limit used to be accepted at
// construction and then wedge every submission; now it is rejected up
// front and every query answers with the construction-time verdict.
TEST(ServiceTest, InvalidLimitsAreRejectedAtConstruction) {
  {
    ServiceConfig config = FastConfig();
    config.max_in_flight = 0;
    EXPECT_EQ(ValidateServiceConfig(config).code(),
              StatusCode::kInvalidArgument);
    UpaService service(&Ctx(), config);
    EXPECT_EQ(service.config_status().code(), StatusCode::kInvalidArgument);
    auto result = service.Execute(MakeRequest("t", "ds", CountQuery(100)));
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    EXPECT_DOUBLE_EQ(service.accountant().Spent("ds"), 0.0);
  }
  {
    ServiceConfig config = FastConfig();
    config.max_queue_per_tenant = 0;
    EXPECT_EQ(ValidateServiceConfig(config).code(),
              StatusCode::kInvalidArgument);
    UpaService service(&Ctx(), config);
    auto result = service.Execute(MakeRequest("t", "ds", CountQuery(100)));
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
  EXPECT_TRUE(ValidateServiceConfig(FastConfig()).ok());
}

TEST(ServiceTest, DestructorDrainsPendingWork) {
  std::vector<std::future<Result<QueryResponse>>> futures;
  {
    UpaService service(&Ctx(), FastConfig());
    for (int i = 0; i < 4; ++i) {
      futures.push_back(service.Submit(MakeRequest(
          "t", "ds", CountQuery(1000), static_cast<uint64_t>(i + 1))));
    }
  }
  for (auto& future : futures) EXPECT_TRUE(future.get().ok());
}

}  // namespace
}  // namespace upa::service
