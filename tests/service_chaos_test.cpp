// Chaos verification (ISSUE tentpole): drives UpaService under a seeded
// random fault schedule — injected phase errors, delays, deadlines,
// client cancellations, crash-and-recover cycles — and asserts the
// robustness invariants:
//   - budget conservation (spent == charged − refunded, audited by the
//     accountant after every schedule and recovery),
//   - a cancelled/failed/deadline-exceeded query refunds its charge and
//     registers nothing,
//   - recovery reconstructs the enforcer registry bit-identically and the
//     ledger as Σ released ε, exactly,
//   - the service keeps draining (no deadlock) with faults active.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "common/failpoint.h"
#include "common/hash.h"
#include "queries/plan_query.h"
#include "relational/executor.h"
#include "relational/sql_parser.h"
#include "service/service.h"
#include "tpch/generator.h"
#include "tpch/queries.h"
#include "upa/simple_query.h"

namespace upa::service {
namespace {

namespace fs = std::filesystem;

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

/// A counting query whose map phase sleeps per record — slow enough that a
/// mid-run cancel/deadline reliably lands before the map→reduce boundary
/// check observes it.
core::QueryInstance SleepyQuery(size_t n, const std::string& name = "sleepy") {
  core::SimpleQuerySpec<int> spec;
  spec.name = name;
  spec.ctx = &Ctx();
  auto records = std::make_shared<std::vector<int>>(n, 0);
  spec.records = records;
  spec.map_record = [](const int&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
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
  request.epsilon = 0.05;
  request.seed = seed;
  return request;
}

/// Registries must match double-for-double at the bit level.
void ExpectRegistryBitIdentical(
    const std::vector<std::vector<double>>& a,
    const std::vector<std::vector<double>>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].size(), b[i].size()) << "prior " << i;
    for (size_t j = 0; j < a[i].size(); ++j) {
      EXPECT_EQ(std::memcmp(&a[i][j], &b[i][j], sizeof(double)), 0)
          << "prior " << i << " partition " << j;
    }
  }
}

/// Every file in `dir` by name, with its bytes.
std::map<std::string, std::string> DirContents(const std::string& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    std::ifstream in(entry.path(), std::ios::binary);
    files[entry.path().filename().string()] =
        std::string(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
  }
  return files;
}

class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Failpoints::Instance().DeactivateAll();
    dir_ = (fs::path(::testing::TempDir()) /
            ("upa_chaos_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override {
    Failpoints::Instance().DeactivateAll();
    fs::remove_all(dir_);
  }

  std::string dir_;
};

TEST_F(ChaosTest, DeadlineExceededMidRunRefundsCharge) {
  UpaService service(&Ctx(), FastConfig());
  QueryRequest request = MakeRequest("a", "ds", SleepyQuery(2000));
  request.deadline_ms = 50;
  auto result = service.Execute(request);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  // Refund iff nothing was released: the charge came back and nothing
  // joined the registry.
  EXPECT_DOUBLE_EQ(service.accountant().Spent("ds"), 0.0);
  EXPECT_EQ(service.DebugState("ds").registry.size(), 0u);
  EXPECT_TRUE(service.accountant().VerifyConservation().ok());
}

// A SQL-plan release whose deadline expires inside the map phase: the
// engine pass fails with the token's status, the release ends with
// DEADLINE_EXCEEDED and a refund, and the service — the whole process —
// stays up to serve the next request.
TEST_F(ChaosTest, PlanQueryDeadlineInMapPhaseRefundsCharge) {
  const tpch::TpchDataset data(tpch::TpchConfig{.num_orders = 300});
  const rel::Catalog catalog = data.catalog();
  auto executor = std::make_shared<const rel::PlanExecutor>(&Ctx(), &catalog);
  const core::QueryInstance q1 =
      queries::MakePlanQuery(&Ctx(), executor, &data, tpch::MakeQ1());
  UpaService service(&Ctx(), FastConfig());

  ASSERT_TRUE(
      Failpoints::Instance().Activate("upa/phase_map", "delay(50)").ok());
  QueryRequest request = MakeRequest("a", "ds", q1);
  request.deadline_ms = 10;
  auto result = service.Execute(request);
  Failpoints::Instance().DeactivateAll();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_DOUBLE_EQ(service.accountant().Spent("ds"), 0.0);
  EXPECT_EQ(service.DebugState("ds").registry.size(), 0u);

  auto next = service.Execute(MakeRequest("a", "ds", q1, 2));
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_DOUBLE_EQ(service.accountant().Spent("ds"), 0.05);
  EXPECT_TRUE(service.accountant().VerifyConservation().ok());
}

// SQL whose one pass fails: an unknown filter column, an unknown SUM
// column, an unknown join key. Each fails its release with the pass's
// INVALID_ARGUMENT; before, each aborted the process.
const char* const kPassErrorSql[] = {
    "SELECT COUNT(*) FROM lineitem WHERE no_such_col > 1",
    "SELECT SUM(no_such_col) FROM lineitem",
    "SELECT COUNT(*) FROM lineitem JOIN orders ON l_orderkey = o_nokey",
};

core::QueryInstance SqlQuery(const tpch::TpchDataset& data,
                             std::shared_ptr<const rel::PlanExecutor> executor,
                             const std::string& sql,
                             const std::string& private_table) {
  Result<rel::PlanPtr> parsed = rel::ParseSql(sql);
  EXPECT_TRUE(parsed.ok()) << sql << ": " << parsed.status().ToString();
  tpch::TpchQuery query;
  query.name = sql;
  query.plan = parsed.ok() ? parsed.value() : nullptr;
  query.private_table = private_table;
  return queries::MakePlanQuery(&Ctx(), std::move(executor), &data, query);
}

// A SQL release whose pass fails for a reason other than the request's
// token ends with the pass's status and a refund: nothing registers, and
// the service (the whole process) serves the next release on the dataset.
// A private table with no record domain fails its domain pass the same way.
TEST_F(ChaosTest, PassErrorFailsTheReleaseAndRefundsTheCharge) {
  const tpch::TpchDataset data(tpch::TpchConfig{.num_orders = 300});
  const rel::Catalog catalog = data.catalog();
  auto executor = std::make_shared<const rel::PlanExecutor>(&Ctx(), &catalog);
  UpaService service(&Ctx(), FastConfig());
  uint64_t seed = 1;
  for (const char* sql : kPassErrorSql) {
    auto result = service.Execute(MakeRequest(
        "a", "lineitem", SqlQuery(data, executor, sql, "lineitem"), seed++));
    ASSERT_FALSE(result.ok()) << sql;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
        << sql << ": " << result.status().ToString();
    EXPECT_DOUBLE_EQ(service.accountant().Spent("lineitem"), 0.0) << sql;
    EXPECT_EQ(service.DebugState("lineitem").registry.size(), 0u) << sql;
  }
  auto nation = service.Execute(MakeRequest(
      "a", "nation",
      SqlQuery(data, executor, "SELECT COUNT(*) FROM nation", "nation"),
      seed++));
  ASSERT_FALSE(nation.ok());
  EXPECT_EQ(nation.status().code(), StatusCode::kUnsupported)
      << nation.status().ToString();
  EXPECT_DOUBLE_EQ(service.accountant().Spent("nation"), 0.0);

  auto next = service.Execute(MakeRequest(
      "a", "lineitem",
      SqlQuery(data, executor, "SELECT COUNT(*) FROM lineitem", "lineitem"),
      seed++));
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_DOUBLE_EQ(service.accountant().Spent("lineitem"), 0.05);
  EXPECT_TRUE(service.accountant().VerifyConservation().ok());
}

TEST_F(ChaosTest, ClientCancelMidRunRefundsCharge) {
  UpaService service(&Ctx(), FastConfig());
  QueryRequest request = MakeRequest("a", "ds", SleepyQuery(2000));
  request.cancel = std::make_shared<CancelToken>();
  auto token = request.cancel;
  auto future = service.Submit(std::move(request));
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  token->Cancel(StatusCode::kCancelled, "analyst closed the session");
  auto result = future.get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(result.status().message(), "analyst closed the session");
  EXPECT_DOUBLE_EQ(service.accountant().Spent("ds"), 0.0);
  EXPECT_EQ(service.DebugState("ds").registry.size(), 0u);
  EXPECT_TRUE(service.accountant().VerifyConservation().ok());
}

TEST_F(ChaosTest, CancelAfterCompletionIsIgnored) {
  UpaService service(&Ctx(), FastConfig());
  QueryRequest request = MakeRequest("a", "ds", CountQuery(2000));
  request.cancel = std::make_shared<CancelToken>();
  auto token = request.cancel;
  auto result = service.Execute(request);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // The release already happened; a late cancel must not claw it back.
  token->Cancel();
  EXPECT_DOUBLE_EQ(service.accountant().Spent("ds"), 0.05);
  EXPECT_EQ(service.DebugState("ds").registry.size(), 1u);
  EXPECT_TRUE(service.accountant().VerifyConservation().ok());
}

TEST_F(ChaosTest, PreCancelledRequestNeverCharges) {
  UpaService service(&Ctx(), FastConfig());
  QueryRequest request = MakeRequest("a", "ds", CountQuery(2000));
  request.cancel = std::make_shared<CancelToken>();
  request.cancel->Cancel();
  auto result = service.Execute(request);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  EXPECT_DOUBLE_EQ(service.accountant().Spent("ds"), 0.0);
}

TEST_F(ChaosTest, WatchdogPrunesQueuedExpiredRequests) {
  UpaService service(&Ctx(), FastConfig());

  // Tenant a holds the dataset in flight with a slow query; tenant b's
  // request can't dispatch (one in-flight per dataset) and its deadline
  // expires in the queue — the watchdog must fail it without running it.
  auto slow = service.Submit(MakeRequest("a", "ds", SleepyQuery(2000)));
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  QueryRequest queued = MakeRequest("b", "ds", CountQuery(2000));
  queued.deadline_ms = 20;
  auto pruned = service.Submit(std::move(queued));

  auto pruned_result = pruned.get();
  ASSERT_FALSE(pruned_result.ok());
  EXPECT_EQ(pruned_result.status().code(), StatusCode::kDeadlineExceeded);
  (void)slow.get();  // drain; the slow query itself is unconstrained
  // The pruned request never charged; only the slow query's outcome moved
  // the ledger.
  EXPECT_TRUE(service.accountant().VerifyConservation().ok());
  EXPECT_EQ(service.DebugState("ds").budget.refunded_total, 0.0);
}

TEST_F(ChaosTest, InjectedPhaseErrorsAlwaysRefund) {
  UpaService service(&Ctx(), FastConfig());
  ASSERT_TRUE(Failpoints::Instance()
                  .Activate("upa/phase_reduce", "error(internal):every(2)")
                  .ok());
  size_t ok_count = 0;
  for (int i = 0; i < 8; ++i) {
    auto result =
        service.Execute(MakeRequest("a", "ds", CountQuery(2000), 10 + i));
    if (result.ok()) {
      ++ok_count;
    } else {
      EXPECT_EQ(result.status().code(), StatusCode::kInternal);
    }
  }
  Failpoints::Instance().DeactivateAll();
  EXPECT_EQ(ok_count, 4u);  // every(2): exactly half the runs fail
  EXPECT_NEAR(service.accountant().Spent("ds"), 0.05 * ok_count, 1e-9);
  EXPECT_EQ(service.DebugState("ds").registry.size(), ok_count);
  EXPECT_TRUE(service.accountant().VerifyConservation().ok());
}

// The tentpole scenario: several crash-free service generations under a
// seeded fault schedule, each followed by a restart from the journal.
// Every generation asserts conservation; every restart asserts the
// recovered registry and epoch are bit-identical to the pre-shutdown
// state. A failed run refunds in memory only and leaves no durable trace,
// so the recovered ledger is the releases' ε summed in order — charged
// exactly that, refunded nothing — and `spent` matches the live one.
TEST_F(ChaosTest, SeededFaultScheduleSurvivesRestarts) {
  constexpr uint64_t kSeed = 20260806;
  const std::vector<std::string> datasets = {"dsA", "dsB"};
  std::map<std::string, size_t> expected_registry;
  std::map<std::string, double> released_epsilon;
  std::map<std::string, UpaService::DatasetDurableDebug> before_restart;

  ServiceConfig config = FastConfig();
  config.journal_dir = dir_;

  for (int round = 0; round < 3; ++round) {
    UpaService service(&Ctx(), config);
    ASSERT_TRUE(service.recovery_status().ok())
        << service.recovery_status().ToString();

    // Restart check: the fresh service must agree bit-for-bit with the
    // state captured just before the previous generation shut down.
    for (const auto& [id, expected] : before_restart) {
      UpaService::DatasetDurableDebug recovered = service.DebugState(id);
      EXPECT_EQ(recovered.epoch, expected.epoch) << id;
      ExpectRegistryBitIdentical(recovered.registry, expected.registry);
      EXPECT_EQ(recovered.budget.charged_total, released_epsilon[id]) << id;
      EXPECT_EQ(recovered.budget.refunded_total, 0.0) << id;
      EXPECT_NEAR(recovered.budget.spent, expected.budget.spent, 1e-9) << id;
    }

    // Seeded fault schedule for this round: phase errors with a seeded
    // probability, deterministic every-N enforcement faults, and latency
    // injection in the service and pool. Bit-reproducible from kSeed.
    uint64_t seed = kSeed + static_cast<uint64_t>(round) * 1000;
    ASSERT_TRUE(Failpoints::Instance()
                    .Activate("upa/phase_map", "error(internal,chaos-map):"
                                               "prob(0.3," +
                                                   std::to_string(seed) + ")")
                    .ok());
    ASSERT_TRUE(Failpoints::Instance()
                    .Activate("upa/phase_enforce", "error(internal):every(5)")
                    .ok());
    ASSERT_TRUE(Failpoints::Instance()
                    .Activate("service/run",
                              "delay(1):prob(0.4," + std::to_string(seed + 1) +
                                  ")")
                    .ok());
    ASSERT_TRUE(Failpoints::Instance()
                    .Activate("threadpool/task",
                              "delay(0.2):prob(0.05," +
                                  std::to_string(seed + 2) + ")")
                    .ok());

    std::vector<std::pair<std::string, std::future<Result<QueryResponse>>>>
        futures;
    for (int i = 0; i < 12; ++i) {
      const std::string& dataset = datasets[i % datasets.size()];
      QueryRequest request = MakeRequest(
          "tenant" + std::to_string(i % 3), dataset,
          CountQuery(2000, "count-" + dataset),
          seed + static_cast<uint64_t>(i));
      if (i % 5 == 4) request.deadline_ms = 2000;  // generous: exercises the
                                                   // deadline plumbing only
      futures.emplace_back(dataset, service.Submit(std::move(request)));
    }
    for (auto& [dataset, future] : futures) {
      auto result = future.get();
      if (result.ok()) {
        ++expected_registry[dataset];
        released_epsilon[dataset] += result.value().epsilon;
      }
    }
    Failpoints::Instance().DeactivateAll();

    // Cover the epoch-bump record once.
    if (round == 1) service.BumpEpoch("dsA");

    // Invariants while the generation is still alive.
    ASSERT_TRUE(service.accountant().VerifyConservation().ok());
    for (const auto& id : datasets) {
      UpaService::DatasetDurableDebug debug = service.DebugState(id);
      EXPECT_EQ(debug.registry.size(), expected_registry[id]) << id;
      EXPECT_NEAR(debug.budget.spent, 0.05 * expected_registry[id], 1e-9)
          << id;
      before_restart[id] = std::move(debug);
    }
  }

  // One final cold start over everything the schedule left behind.
  UpaService final_service(&Ctx(), config);
  ASSERT_TRUE(final_service.recovery_status().ok());
  ASSERT_TRUE(final_service.accountant().VerifyConservation().ok());
  for (const auto& [id, expected] : before_restart) {
    UpaService::DatasetDurableDebug recovered = final_service.DebugState(id);
    ExpectRegistryBitIdentical(recovered.registry, expected.registry);
    EXPECT_EQ(recovered.budget.charged_total, released_epsilon[id]) << id;
    EXPECT_EQ(recovered.budget.refunded_total, 0.0) << id;
    EXPECT_NEAR(recovered.budget.spent, expected.budget.spent, 1e-9) << id;
  }
}

// Faults on the journal's own append path: the in-memory ledger and the
// durable state must agree (up to float re-association) whichever side of
// the append the error lands on.
TEST_F(ChaosTest, JournalAppendFaultsKeepDiskAndMemoryConsistent) {
  ServiceConfig config = FastConfig();
  config.journal_dir = dir_;
  std::map<std::string, dp::BudgetCheckpoint> live;
  {
    UpaService service(&Ctx(), config);
    ASSERT_TRUE(Failpoints::Instance()
                    .Activate("journal/before_append",
                              "error(internal,journal-chaos):prob(0.25,99)")
                    .ok());
    for (int i = 0; i < 10; ++i) {
      // Outcomes vary (some appends fail → query fails + refund); every
      // path must keep both ledgers consistent.
      (void)service.Execute(
          MakeRequest("a", "ds", CountQuery(2000), 100 + i));
    }
    Failpoints::Instance().DeactivateAll();
    ASSERT_TRUE(service.accountant().VerifyConservation().ok());
    live["ds"] = service.DebugState("ds").budget;
  }
  UpaService recovered(&Ctx(), config);
  ASSERT_TRUE(recovered.recovery_status().ok());
  ASSERT_TRUE(recovered.accountant().VerifyConservation().ok());
  // A failed release append refunds in memory and journals nothing, so the
  // cumulative totals may legitimately differ — the live balance must not.
  EXPECT_NEAR(recovered.DebugState("ds").budget.spent, live["ds"].spent,
              1e-9);
}

// A journal that fails to open must not pin its error on the dataset: once
// the fault is gone, the next request opens the journal and releases, and
// that release survives a restart.
TEST_F(ChaosTest, FailedJournalOpenIsRetriedByTheNextRequest) {
  ServiceConfig config = FastConfig();
  config.journal_dir = dir_;
  config.journal_fsync = false;
  std::vector<std::vector<double>> registry;
  {
    UpaService service(&Ctx(), config);
    ASSERT_TRUE(Failpoints::Instance()
                    .Activate("journal/before_append",
                              "error(internal,transient)")
                    .ok());
    Result<QueryResponse> first =
        service.Execute(MakeRequest("a", "fresh", CountQuery(2000), 1));
    ASSERT_FALSE(first.ok());
    EXPECT_EQ(first.status().message(), "transient");
    Failpoints::Instance().Deactivate("journal/before_append");

    Result<QueryResponse> second =
        service.Execute(MakeRequest("a", "fresh", CountQuery(2000), 2));
    ASSERT_TRUE(second.ok()) << second.status().ToString();
    EXPECT_DOUBLE_EQ(service.accountant().Spent("fresh"), 0.05);
    registry = service.DebugState("fresh").registry;
    ASSERT_EQ(registry.size(), 1u);
  }
  UpaService recovered(&Ctx(), config);
  ASSERT_TRUE(recovered.recovery_status().ok())
      << recovered.recovery_status().ToString();
  EXPECT_DOUBLE_EQ(recovered.accountant().Spent("fresh"), 0.05);
  ExpectRegistryBitIdentical(recovered.DebugState("fresh").registry,
                             registry);
}

// A failed recovery must leave the service inert. Recovery stops at the
// first bad file, so no dataset's ledger or registry is restored; serving
// anything would charge against a full budget and an empty registry.
// Scenario: the dataset's budget of 1.0 is spent by one release, a clean
// restart correctly refuses the next one, then `poison` damages the
// journal directory. After the next restart nothing may be released,
// charged or journaled, and /stats says why, naming `bad_file`.
void ExpectPoisonedRecoveryIsInert(const std::string& dir,
                                   const std::string& bad_file,
                                   const std::function<void()>& poison) {
  ServiceConfig config = FastConfig();
  config.journal_dir = dir;
  config.journal_fsync = false;
  config.budget_per_dataset = 1.0;
  auto full_budget = [] {
    QueryRequest request = MakeRequest("a", "ds", CountQuery(2000));
    request.epsilon = 1.0;
    return request;
  };
  {
    UpaService service(&Ctx(), config);
    ASSERT_TRUE(service.Execute(full_budget()).ok());
  }
  {
    UpaService service(&Ctx(), config);
    ASSERT_TRUE(service.recovery_status().ok())
        << service.recovery_status().ToString();
    EXPECT_EQ(service.Execute(full_budget()).status().code(),
              StatusCode::kOutOfRange);
  }
  poison();
  const auto files = DirContents(dir);

  UpaService service(&Ctx(), config);
  const Status recovery = service.recovery_status();
  ASSERT_FALSE(recovery.ok());
  EXPECT_NE(recovery.message().find(bad_file), std::string::npos)
      << recovery.ToString();
  Result<QueryResponse> again = service.Execute(full_budget());
  ASSERT_FALSE(again.ok()) << "released against an unrecovered ledger";
  EXPECT_EQ(again.status().code(), recovery.code());
  EXPECT_EQ(again.status().message(), recovery.message());
  service.BumpEpoch("ds");
  EXPECT_DOUBLE_EQ(service.accountant().Spent("ds"), 0.0);
  EXPECT_EQ(DirContents(dir), files);
  EXPECT_NE(service.StatsReport().find(recovery.message()), std::string::npos)
      << service.StatsReport();
}

TEST_F(ChaosTest, HeaderlessJournalLeavesTheServiceInert) {
  ExpectPoisonedRecoveryIsInert(dir_, "other.journal", [this] {
    // The dataset's own intact records minus the kOpen frame that names
    // the dataset: [u32 len][u64 fnv1a][payload] each.
    std::ifstream in(fs::path(dir_) / (Journal::FileStem("ds") + ".journal"),
                     std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    ASSERT_GE(bytes.size(), 4u);
    size_t open_frame = 12;
    for (int i = 0; i < 4; ++i) {
      open_frame += size_t{static_cast<unsigned char>(bytes[i])} << (8 * i);
    }
    ASSERT_LT(open_frame, bytes.size());
    std::ofstream out(fs::path(dir_) / "other.journal", std::ios::binary);
    out << bytes.substr(open_frame);
  });
}

// Journal::Open appends only to `<FileStem(id)>.journal`. A journal under
// any other name would be skipped by every later append: its releases
// would be forgotten while a fresh journal grew beside it, so recovery
// refuses it and names the file.
TEST_F(ChaosTest, JournalUnderAnotherNameLeavesTheServiceInert) {
  ExpectPoisonedRecoveryIsInert(dir_, "renamed.journal", [this] {
    fs::rename(fs::path(dir_) / (Journal::FileStem("ds") + ".journal"),
               fs::path(dir_) / "renamed.journal");
  });
}

// The journal is a dataset's only durable file. Snapshot files that older
// builds wrote beside it (`<stem>.snapshot`, and `<stem>.snapshot.tmp`
// from a crash mid-write), corrupt or not, are neither read nor touched,
// and a restart over a journal with no torn tail creates, changes or
// deletes no file.
TEST_F(ChaosTest, StraySnapshotFilesAreIgnoredAndARestartWritesNothing) {
  ServiceConfig config = FastConfig();
  config.journal_dir = dir_;
  config.journal_fsync = false;
  UpaService::DatasetDurableDebug live;
  {
    UpaService service(&Ctx(), config);
    for (uint64_t seq = 1; seq <= 3; ++seq) {
      QueryRequest request = MakeRequest("a", "ds", CountQuery(2000), seq);
      request.client_nonce = 0xabc;
      request.client_seq = seq;
      ASSERT_TRUE(service.Execute(std::move(request)).ok());
    }
    service.BumpEpoch("ds");
    live = service.DebugState("ds");
  }
  const std::string stem = (fs::path(dir_) / Journal::FileStem("ds")).string();
  // The old layout: magic, fnv1a(body), body; then one body byte flipped.
  const std::string body = "a snapshot body";
  PayloadWriter header;
  header.PutBytes("UPASNAP2");
  header.PutU64(Fnv1a(body));
  std::string checksummed = header.Take() + body;
  checksummed.back() ^= 0x01;
  for (const std::string& snapshot :
       {std::string("arbitrary \xff\x00 bytes", 18), checksummed}) {
    SCOPED_TRACE(snapshot.substr(0, 8));
    std::ofstream(stem + ".snapshot", std::ios::binary) << snapshot;
    std::ofstream(stem + ".snapshot.tmp", std::ios::binary) << "tmp";
    const auto files = DirContents(dir_);
    {
      UpaService service(&Ctx(), config);
      ASSERT_TRUE(service.recovery_status().ok())
          << service.recovery_status().ToString();
      UpaService::DatasetDurableDebug got = service.DebugState("ds");
      ExpectRegistryBitIdentical(got.registry, live.registry);
      EXPECT_EQ(got.budget.charged_total, live.budget.charged_total);
      EXPECT_EQ(got.budget.spent, live.budget.spent);
      EXPECT_EQ(got.epoch, live.epoch);
      EXPECT_EQ(service.DedupWindowSize("ds"), 3u);
    }
    EXPECT_EQ(DirContents(dir_), files);
  }
}

// A NaN ε must be refused before anything is charged, run or journaled.
// NaN fails every comparison: charged, it would make spent NaN and let
// every later budget check pass, and the noisy run would abort the process
// in the Laplace mechanism.
TEST_F(ChaosTest, NanEpsilonIsRefusedAndTheBudgetHolds) {
  ServiceConfig config = FastConfig();
  config.journal_dir = dir_;
  config.budget_per_dataset = 1.0;
  config.upa.add_noise = true;
  auto request = [](double epsilon, uint64_t seed) {
    QueryRequest r = MakeRequest("a", "ds", CountQuery(2000), seed);
    r.epsilon = epsilon;
    return r;
  };
  {
    UpaService service(&Ctx(), config);
    auto refused = service.Execute(
        request(std::numeric_limits<double>::quiet_NaN(), 1));
    EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument)
        << refused.status().ToString();
    EXPECT_EQ(service.accountant().Spent("ds"), 0.0);
  }
  auto records = Journal::ReadAll(
      (fs::path(dir_) / (Journal::FileStem("ds") + ".journal")).string());
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_EQ(records.value().size(), 1u);
  EXPECT_EQ(records.value()[0].type, JournalRecord::Type::kOpen);

  UpaService service(&Ctx(), config);
  ASSERT_TRUE(service.recovery_status().ok())
      << service.recovery_status().ToString();
  size_t released = 0;
  for (uint64_t i = 0; i < 5; ++i) {
    auto result = service.Execute(request(0.5, 10 + i));
    if (result.ok()) {
      ++released;
    } else {
      EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
    }
  }
  EXPECT_EQ(released, 2u);
  EXPECT_DOUBLE_EQ(service.accountant().Spent("ds"), 1.0);
}

// Crash-and-recover: the child process aborts at a protocol or journal
// fault site; the parent then recovers from the same journal dir and must
// see exactly the acknowledged state.
using ServiceCrashDeathTest = ChaosTest;

TEST_F(ServiceCrashDeathTest, AbortBeforeRunRecoversWithNothingCharged) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  std::string dir = dir_;
  EXPECT_DEATH(
      {
        // threadsafe style re-execs the binary: the child gets its own
        // Ctx() with live pool threads.
        ServiceConfig config = FastConfig();
        config.journal_dir = dir;
        UpaService service(&Ctx(), config);
        // Charged in memory, nothing run, nothing durable but the kOpen.
        UPA_CHECK(Failpoints::Instance()
                      .Activate("service/pre_run", "abort")
                      .ok());
        (void)service.Execute(MakeRequest("a", "ds", CountQuery(2000)));
      },
      "injected abort");

  // Parent: the charge died with the process. Nothing was released,
  // nothing registers, and nothing is charged or refunded.
  ServiceConfig config = FastConfig();
  config.journal_dir = dir;
  UpaService service(&Ctx(), config);
  ASSERT_TRUE(service.recovery_status().ok())
      << service.recovery_status().ToString();
  UpaService::DatasetDurableDebug debug = service.DebugState("ds");
  EXPECT_EQ(debug.registry.size(), 0u);
  EXPECT_EQ(debug.budget.charged_total, 0.0);
  EXPECT_EQ(debug.budget.refunded_total, 0.0);
  EXPECT_EQ(debug.budget.spent, 0.0);
  EXPECT_TRUE(service.accountant().VerifyConservation().ok());
}

TEST_F(ServiceCrashDeathTest, AbortAfterReleaseAppendRecoversTheRelease) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  std::string dir = dir_;
  EXPECT_DEATH(
      {
        ServiceConfig config = FastConfig();
        config.journal_dir = dir;
        UpaService service(&Ctx(), config);
        // kOpen (1), kRelease (2): the release is durable, the crash hits
        // before the response resolves.
        UPA_CHECK(Failpoints::Instance()
                      .Activate("journal/after_append", "abort:every(2)")
                      .ok());
        (void)service.Execute(MakeRequest("a", "ds", CountQuery(2000)));
      },
      "injected abort");

  // The release record is on disk, so the query's charge sticks and its
  // partition outputs are in the registry — an acknowledged-release crash
  // loses nothing.
  ServiceConfig config = FastConfig();
  config.journal_dir = dir;
  UpaService service(&Ctx(), config);
  ASSERT_TRUE(service.recovery_status().ok());
  UpaService::DatasetDurableDebug debug = service.DebugState("ds");
  EXPECT_EQ(debug.registry.size(), 1u);
  EXPECT_DOUBLE_EQ(debug.budget.charged_total, 0.05);
  EXPECT_DOUBLE_EQ(debug.budget.refunded_total, 0.0);
  EXPECT_DOUBLE_EQ(debug.budget.spent, 0.05);
  EXPECT_TRUE(service.accountant().VerifyConservation().ok());
}

TEST_F(ServiceCrashDeathTest, AbortBetweenFlushAndFsyncConservesEitherWay) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  std::string dir = dir_;
  EXPECT_DEATH(
      {
        ServiceConfig config = FastConfig();
        config.journal_dir = dir;
        UpaService service(&Ctx(), config);
        // before_sync fires once per append with journal_fsync on: kOpen
        // (hit 1), kRelease (hit 2). Abort at hit 2 — the release frame has
        // reached the kernel but fdatasync has not run, the exact window
        // the durability fix closes.
        UPA_CHECK(Failpoints::Instance()
                      .Activate("journal/before_sync", "abort:every(2)")
                      .ok());
        (void)service.Execute(MakeRequest("a", "ds", CountQuery(2000)));
      },
      "injected abort");

  // Whether the unsynced frame survived is a property of the crash (an
  // abort keeps the page cache; power loss may not). The contract is
  // weaker than after_append's — nothing was acknowledged, so recovery
  // only has to conserve: the release is registered and charged together
  // or not at all.
  ServiceConfig config = FastConfig();
  config.journal_dir = dir;
  UpaService service(&Ctx(), config);
  ASSERT_TRUE(service.recovery_status().ok())
      << service.recovery_status().ToString();
  UpaService::DatasetDurableDebug debug = service.DebugState("ds");
  const size_t released = debug.registry.size();
  EXPECT_LE(released, 1u);
  EXPECT_DOUBLE_EQ(debug.budget.spent, 0.05 * static_cast<double>(released));
  EXPECT_EQ(debug.budget.refunded_total, 0.0);
  EXPECT_TRUE(service.accountant().VerifyConservation().ok());
}

// A crash inside Journal::Open, before a fresh journal's kOpen frame is
// written, must leave no headerless `.journal` behind: recovery refuses
// such a file, and the restarted service would refuse every dataset.
TEST_F(ServiceCrashDeathTest, AbortInsideJournalOpenRecoversAndServes) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  std::string dir = dir_;
  EXPECT_DEATH(
      {
        ServiceConfig config = FastConfig();
        config.journal_dir = dir;
        UpaService service(&Ctx(), config);
        // A fresh dataset's first append is its journal's kOpen header.
        UPA_CHECK(Failpoints::Instance()
                      .Activate("journal/before_append", "abort")
                      .ok());
        (void)service.Execute(MakeRequest("a", "ds", CountQuery(2000)));
      },
      "injected abort");

  ServiceConfig config = FastConfig();
  config.journal_dir = dir;
  {
    UpaService service(&Ctx(), config);
    ASSERT_TRUE(service.recovery_status().ok())
        << service.recovery_status().ToString();
    auto released = service.Execute(MakeRequest("a", "ds", CountQuery(2000)));
    ASSERT_TRUE(released.ok()) << released.status().ToString();
  }
  // The journal the retry created is a real one: the release survives.
  UpaService service(&Ctx(), config);
  ASSERT_TRUE(service.recovery_status().ok())
      << service.recovery_status().ToString();
  UpaService::DatasetDurableDebug debug = service.DebugState("ds");
  EXPECT_EQ(debug.registry.size(), 1u);
  EXPECT_DOUBLE_EQ(debug.budget.spent, 0.05);
}

}  // namespace
}  // namespace upa::service
