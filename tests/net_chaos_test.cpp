// Chaos at the socket boundary: seeded fault schedules on the server's
// accept/read/write/decode failpoints while threaded wire clients hammer
// it, plus a crash-recovery death test that kills the whole server process
// mid-release and recovers from the journal.
//
// Invariants:
//   - budget conservation survives any schedule of transport faults: a
//     request that died before dispatch charges nothing; a request whose
//     RESPONSE was lost (write fault after release) keeps its charge —
//     spent must equal epsilon × registry entries, exactly;
//   - fault schedules are seeded and deterministic, so a failure replays;
//   - after a mid-release crash, the journal-recovered registry and ledger
//     are bit-identical to an in-process replay of the same query.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/hash.h"
#include "net/client.h"
#include "net/server.h"
#include "upa/simple_query.h"

namespace upa::net {
namespace {

namespace fs = std::filesystem;

engine::ExecContext& Ctx() {
  static engine::ExecContext ctx(
      engine::ExecConfig{.threads = 2, .default_partitions = 4});
  return ctx;
}

core::QueryInstance CountQuery(size_t n, const std::string& name) {
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

QueryCompiler CountCompiler() {
  return [](const WireQuery& wire) -> Result<core::QueryInstance> {
    if (wire.sql.rfind("count:", 0) != 0) {
      return Status::InvalidArgument("unknown toy SQL: " + wire.sql);
    }
    return CountQuery(std::stoul(wire.sql.substr(6)), wire.sql);
  };
}

service::ServiceConfig FastConfig() {
  service::ServiceConfig config;
  config.upa.sample_n = 100;
  config.upa.add_noise = false;
  return config;
}

WireQuery MakeWireQuery(const std::string& tenant, const std::string& dataset,
                        const std::string& sql, uint64_t seed) {
  WireQuery query;
  query.tenant = tenant;
  query.dataset_id = dataset;
  query.epsilon = 0.05;
  query.seed = seed;
  query.sql = sql;
  return query;
}

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

class NetChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Failpoints::Instance().DeactivateAll();
    dir_ = (fs::path(::testing::TempDir()) /
            ("upa_net_chaos_" +
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

// Seeded transport-fault schedule: read/write/accept/decode faults fire
// with seeded probabilities while clients (who reconnect on failure) push
// queries through. Whatever the sockets did, the ledger must balance.
TEST_F(NetChaosTest, SeededSocketFaultScheduleConservesBudget) {
  constexpr uint64_t kSeed = 20260807;
  constexpr size_t kClients = 3;
  constexpr size_t kQueries = 8;

  service::UpaService service(&Ctx(), FastConfig());
  Server server(&service, CountCompiler(), {});
  ASSERT_TRUE(server.Start().ok());

  ASSERT_TRUE(Failpoints::Instance()
                  .Activate("net/read", "error(internal,chaos-read):prob(0.1," +
                                            std::to_string(kSeed) + ")")
                  .ok());
  ASSERT_TRUE(Failpoints::Instance()
                  .Activate("net/write",
                            "error(internal,chaos-write):prob(0.1," +
                                std::to_string(kSeed + 1) + ")")
                  .ok());
  ASSERT_TRUE(Failpoints::Instance()
                  .Activate("net/decode",
                            "error(invalid_argument,chaos-decode):prob(0.05," +
                                std::to_string(kSeed + 2) + ")")
                  .ok());
  ASSERT_TRUE(Failpoints::Instance()
                  .Activate("net/accept",
                            "error(internal,chaos-accept):prob(0.1," +
                                std::to_string(kSeed + 3) + ")")
                  .ok());

  std::vector<size_t> successes(kClients, 0);
  std::vector<std::thread> workers;
  for (size_t i = 0; i < kClients; ++i) {
    workers.emplace_back([&, i] {
      std::unique_ptr<Client> client;
      for (size_t q = 0; q < kQueries; ++q) {
        bool done = false;
        // Bounded retries: transport faults poison a connection, so a
        // failed attempt reconnects. The seeded schedule guarantees the
        // faults thin out per-hit, so progress is deterministic.
        for (int attempt = 0; attempt < 50 && !done; ++attempt) {
          if (client == nullptr) {
            auto connected = Client::Connect("127.0.0.1", server.port());
            if (!connected.ok()) continue;
            client = std::move(connected).value();
          }
          auto result = client->Query(MakeWireQuery(
              "tenant" + std::to_string(i), "ds" + std::to_string(i),
              "count:1500", 1000 * i + q));
          if (!result.ok()) {
            client.reset();  // transport fault: reconnect and retry
            continue;
          }
          // A server-side rejection (decode fault surfaced as an error
          // frame, queue pressure) also poisons nothing service-side.
          done = true;
          if (result.value().ok()) ++successes[i];
        }
      }
    });
  }
  for (auto& worker : workers) worker.join();
  server.Stop();
  Failpoints::Instance().DeactivateAll();

  ASSERT_TRUE(service.accountant().VerifyConservation().ok());
  for (size_t i = 0; i < kClients; ++i) {
    std::string ds = "ds" + std::to_string(i);
    auto debug = service.DebugState(ds);
    // Budget == epsilon × what actually joined the registry. Responses
    // lost to write faults still charged (the release happened); requests
    // killed before dispatch refunded.
    EXPECT_NEAR(debug.budget.spent, 0.05 * debug.registry.size(), 1e-12)
        << ds;
    // Every response a client saw corresponds to a registry entry.
    EXPECT_GE(debug.registry.size(), successes[i]) << ds;
    EXPECT_GT(successes[i], 0u) << "client " << i << " never made progress";
  }
}

// A disconnect storm mid-request: clients vanish while their queries run.
// Every in-flight charge must come back (nothing was released), and the
// server must reap every connection.
TEST_F(NetChaosTest, DisconnectStormRefundsEverything) {
  service::UpaService service(&Ctx(), FastConfig());
  Server server(&service, CountCompiler(), {});
  ASSERT_TRUE(server.Start().ok());

  // Slow the pool a touch so disconnects land mid-run.
  ASSERT_TRUE(Failpoints::Instance()
                  .Activate("threadpool/task", "delay(1):prob(0.5,7)")
                  .ok());
  for (int round = 0; round < 6; ++round) {
    auto connected = Client::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(connected.ok());
    auto client = std::move(connected).value();
    auto tag = client->Send(
        MakeWireQuery("storm", "ds", "count:2000", 100 + round));
    ASSERT_TRUE(tag.ok());
    // Drop the connection without reading the response.
    client.reset();
  }
  Failpoints::Instance().DeactivateAll();

  // Drain: wait until nothing is in flight, then audit.
  for (int i = 0; i < 5000; ++i) {
    if (server.stats().open_connections == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.Stop();
  ASSERT_TRUE(service.accountant().VerifyConservation().ok());
  auto debug = service.DebugState("ds");
  // Whatever released before its client vanished keeps its charge; every
  // cancelled-in-time run refunded. Either way the ledger matches the
  // registry exactly.
  EXPECT_NEAR(debug.budget.spent, 0.05 * debug.registry.size(), 1e-12);
  EXPECT_EQ(server.stats().open_connections, 0u);
}

// The crash test: the server process dies mid-release (abort after the
// release journal append, before the response frame is written). Recovery
// from the journal must reproduce the registry and ledger bit-identically
// to an in-process service that ran the same query undisturbed.
using NetCrashDeathTest = NetChaosTest;

TEST_F(NetCrashDeathTest, ServerKilledMidReleaseRecoversBitIdentically) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  std::string dir = dir_;
  EXPECT_DEATH(
      {
        service::ServiceConfig config = FastConfig();
        config.journal_dir = dir;
        service::UpaService service(&Ctx(), config);
        Server server(&service, CountCompiler(), {});
        Status started = server.Start();
        UPA_CHECK_MSG(started.ok(), started.ToString());
        // Journal appends: kOpen (1), kRelease (2) — abort the instant
        // the release is durable, before the response frame leaves the
        // server.
        UPA_CHECK(Failpoints::Instance()
                      .Activate("journal/after_append", "abort:every(2)")
                      .ok());
        auto connected = Client::Connect("127.0.0.1", server.port());
        UPA_CHECK(connected.ok());
        (void)connected.value()->Query(
            MakeWireQuery("a", "ds", "count:2000", 1));
      },
      "injected abort");

  // Recover the crashed server's state from its journal.
  service::ServiceConfig config = FastConfig();
  config.journal_dir = dir;
  service::UpaService recovered(&Ctx(), config);
  ASSERT_TRUE(recovered.recovery_status().ok())
      << recovered.recovery_status().ToString();
  ASSERT_TRUE(recovered.accountant().VerifyConservation().ok());

  // The same query, run undisturbed and fully in process.
  service::UpaService replay(&Ctx(), FastConfig());
  service::QueryRequest request;
  request.tenant = "a";
  request.dataset_id = "ds";
  request.query = CountQuery(2000, "count:2000");
  request.epsilon = 0.05;
  request.seed = 1;
  request.fingerprint = Fnv1a(std::string("count:2000"));
  ASSERT_TRUE(replay.Execute(request).ok());

  auto crashed = recovered.DebugState("ds");
  auto expected = replay.DebugState("ds");
  ASSERT_EQ(crashed.registry.size(), 1u);
  ExpectRegistryBitIdentical(crashed.registry, expected.registry);
  EXPECT_EQ(std::memcmp(&crashed.budget.spent, &expected.budget.spent,
                        sizeof(double)),
            0);
  EXPECT_DOUBLE_EQ(crashed.budget.charged_total, 0.05);
  EXPECT_DOUBLE_EQ(crashed.budget.refunded_total, 0.0);
}

// Regression: answering a framing error while the write path is ALSO
// failing used to free the Connection inside QueueWrite's inline flush and
// then set close_after_flush / re-flush through the dangling reference
// (use-after-free, caught under ASan). The error branches must tolerate
// the queued error frame's flush destroying the connection.
TEST_F(NetChaosTest, WriteFaultDuringErrorFrameDoesNotTouchFreedConnection) {
  service::UpaService service(&Ctx(), FastConfig());
  Server server(&service, CountCompiler(), {});
  ASSERT_TRUE(server.Start().ok());

  ASSERT_TRUE(Failpoints::Instance()
                  .Activate("net/write", "error(internal,always-write)")
                  .ok());

  for (int i = 0; i < 8; ++i) {
    auto connected = Client::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(connected.ok()) << connected.status().ToString();
    auto client = std::move(connected).value();
    // Unsynchronisable garbage: the server queues a kError frame, and the
    // injected write fault closes the connection inside that very queue
    // call — the path that used to dangle.
    ASSERT_TRUE(client->SendBytes("these bytes are not a frame").ok());
    auto frame = client->ReadFrame(/*timeout_ms=*/2000);
    EXPECT_FALSE(frame.ok());  // closed without a frame ever making it out
  }

  Failpoints::Instance().DeactivateAll();
  EXPECT_GE(server.stats().protocol_errors, 8u);
  server.Stop();
}

}  // namespace
}  // namespace upa::net
