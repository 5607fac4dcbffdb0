// Cluster layer tests: the consistent-hash ring, and the router over
// in-process shard servers (real net::Server instances — the router cannot
// tell; cross-PROCESS shards are covered by cluster_chaos_test.cpp).
//
// The centrepiece is the differential test: the same sequential workload
// driven (a) straight at one UpaService and (b) through the router over a
// 4-shard cluster must produce BIT-identical released values and identical
// budget ledgers per dataset — sharding adds placement and transport,
// never semantics. The rest covers the protection edges: per-shard
// backpressure (kResourceExhausted), dead-shard rejection (kUnavailable),
// in-flight failover when a shard dies mid-query, a client that leaves
// mid-route, and the health-probe gate on reconnect.
#include "cluster/router.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/ring.h"
#include "cluster/shard_process.h"
#include "common/backoff.h"
#include "net/client.h"
#include "net/server.h"
#include "upa/simple_query.h"

namespace upa::cluster {
namespace {

engine::ExecContext& Ctx() {
  static engine::ExecContext ctx(
      engine::ExecConfig{.threads = 4, .default_partitions = 4});
  return ctx;
}

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
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

core::QueryInstance GatedQuery(size_t n,
                               std::shared_ptr<std::atomic<bool>> gate,
                               const std::string& name) {
  core::QueryInstance q = CountQuery(n, name);
  auto inner = std::move(q.execute_phases);
  q.execute_phases = [inner, gate](std::span<const size_t> sample_indices,
                                   size_t num_partitions, size_t num_domain,
                                   uint64_t seed) {
    while (!gate->load(std::memory_order_acquire)) std::this_thread::yield();
    return inner(sample_indices, num_partitions, num_domain, seed);
  };
  return q;
}

net::QueryCompiler ToyCompiler(std::shared_ptr<std::atomic<bool>> gate) {
  return [gate](const net::WireQuery& wire) -> Result<core::QueryInstance> {
    if (wire.sql.rfind("count:", 0) == 0) {
      return CountQuery(std::stoul(wire.sql.substr(6)), wire.sql);
    }
    if (wire.sql.rfind("gate:", 0) == 0) {
      return GatedQuery(std::stoul(wire.sql.substr(5)), gate, wire.sql);
    }
    return Status::InvalidArgument("unknown toy SQL: " + wire.sql);
  };
}

service::ServiceConfig FastConfig() {
  service::ServiceConfig config;
  config.upa.sample_n = 100;
  return config;
}

bool WaitFor(const std::function<bool()>& pred) {
  for (int i = 0; i < 10000; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

/// The counter printed as "  <name>  <value>" in a /stats text, or -1.
int64_t StatsCounter(const std::string& text, const std::string& name) {
  const size_t at = text.find("  " + name + " ");
  if (at == std::string::npos) return -1;
  return std::stoll(text.substr(at + name.size() + 3));
}

/// One in-process shard: service + wire server + gate.
struct Shard {
  explicit Shard(service::ServiceConfig cfg = FastConfig(),
                 net::ServerConfig net_cfg = {})
      : gate(std::make_shared<std::atomic<bool>>(false)),
        service(&Ctx(), cfg),
        server(&service, ToyCompiler(gate), net_cfg) {
    Status started = server.Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
  }
  ShardAddress address() const { return {"127.0.0.1", server.port()}; }

  std::shared_ptr<std::atomic<bool>> gate;
  service::UpaService service;
  net::Server server;
};

net::WireQuery MakeQuery(const std::string& dataset, const std::string& sql,
                         uint64_t seed) {
  net::WireQuery query;
  query.tenant = "tenant-" + dataset;
  query.dataset_id = dataset;
  query.epsilon = 0.1;
  query.seed = seed;
  query.sql = sql;
  return query;
}

// ---------------------------------------------------------------------------
// Backoff.

// The first redial and respawn delays for the default bounds and seeds,
// as the router's and the supervisor's own copies of this backoff gave
// them before the two shared one.
TEST(JitteredBackoffTest, DefaultSeedsKeepTheRouterAndSupervisorDelays) {
  const RouterConfig router;
  JitteredBackoff redial(router.backoff_initial_ms, router.backoff_max_ms,
                         router.backoff_jitter_seed);
  double interval = redial.initial_ms();
  for (double expected :
       {16.2181556224823, 46.97221040725708, 60.772709846496582,
        159.74007129669189, 275.33212661743164, 676.58205032348633,
        1104.0507125854492, 2011.5208625793457}) {
    EXPECT_EQ(redial.Next(&interval), expected);
  }
  EXPECT_EQ(interval, router.backoff_max_ms);

  const ShardSupervisor::Options supervisor;
  JitteredBackoff respawn(supervisor.backoff_initial_ms,
                          supervisor.backoff_max_ms,
                          supervisor.backoff_jitter_seed);
  interval = respawn.initial_ms();
  for (double expected :
       {62.416352331638336, 121.91611528396606, 186.60858869552612,
        318.26233863830566, 822.19276428222656, 1906.7668437957764,
        2387.7289891242981, 1824.1318464279175}) {
    EXPECT_EQ(respawn.Next(&interval), expected);
  }
  EXPECT_EQ(interval, supervisor.backoff_max_ms);
}

// ---------------------------------------------------------------------------
// Ring.

TEST(ClusterRingTest, DeterministicAcrossInstances) {
  ConsistentHashRing a(4, 64), b(4, 64);
  for (int i = 0; i < 2000; ++i) {
    const std::string id = "dataset-" + std::to_string(i);
    EXPECT_EQ(a.ShardFor(id), b.ShardFor(id));
  }
}

TEST(ClusterRingTest, CoversAllShardsRoughlyEvenly) {
  const size_t shards = 4;
  ConsistentHashRing ring(shards, 64);
  std::vector<size_t> counts(shards, 0);
  const size_t ids = 10000;
  for (size_t i = 0; i < ids; ++i) {
    ++counts[ring.ShardFor("ds-" + std::to_string(i))];
  }
  for (size_t s = 0; s < shards; ++s) {
    // 64 vnodes keeps the spread well inside [10%, 45%] of uniform share.
    EXPECT_GT(counts[s], ids / 10) << "shard " << s;
    EXPECT_LT(counts[s], ids * 45 / 100) << "shard " << s;
  }
}

TEST(ClusterRingTest, GrowingTheRingMovesOnlyAFraction) {
  ConsistentHashRing four(4, 64), five(5, 64);
  size_t moved = 0;
  const size_t ids = 10000;
  for (size_t i = 0; i < ids; ++i) {
    const std::string id = "ds-" + std::to_string(i);
    if (four.ShardFor(id) != five.ShardFor(id)) ++moved;
  }
  // Consistent hashing: adding shard 5 of 5 should move ~1/5 of the keys,
  // not rehash the world. Allow generous slack over the ideal 20%.
  EXPECT_LT(moved, ids * 45 / 100);
  EXPECT_GT(moved, ids / 20);  // and it must move *something*
}

TEST(ClusterRingDeathTest, RejectsEmptyRing) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(ConsistentHashRing(0, 64), "at least one shard");
}

// ---------------------------------------------------------------------------
// Router.

TEST(ClusterRouterTest, RoutesQueriesAndServesStats) {
  Shard shard;
  Router router({shard.address()});
  ASSERT_TRUE(router.Start().ok());
  ASSERT_TRUE(WaitFor([&] { return router.ShardHealthy(0); }));

  auto connected = net::Client::Connect("127.0.0.1", router.port());
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  std::unique_ptr<net::Client> client = std::move(connected).value();

  auto result = client->Query(MakeQuery("ds", "count:500", 7));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(result.value().ok()) << result.value().status().ToString();
  EXPECT_NEAR(result.value().response.released, 500.0, 100.0);

  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_NE(stats.value().find("upa router"), std::string::npos);
  EXPECT_NE(stats.value().find("healthy"), std::string::npos);

  Router::Stats s = router.stats();
  EXPECT_EQ(s.routed, 1u);
  EXPECT_EQ(s.replies, 1u);
  router.Stop();
}

// The differential: one service vs a 4-shard cluster, same workload, same
// order. Released bits, budget ledgers and epochs must match per dataset.
TEST(ClusterRouterTest, FourShardClusterIsBitIdenticalToOneService) {
  const std::vector<std::string> datasets = {"alpha", "beta",  "gamma",
                                             "delta", "omega", "zeta"};
  struct Step {
    std::string dataset;
    std::string sql;
    uint64_t seed;
  };
  std::vector<Step> workload;
  for (int round = 0; round < 3; ++round) {
    for (const std::string& ds : datasets) {
      workload.push_back({ds, "count:" + std::to_string(300 + 100 * round),
                          uint64_t(1000 + round)});
      // A literal repeat in the same round: exercises the sensitivity
      // cache and the repeat-query defense on whichever shard owns `ds`.
      workload.push_back({ds, "count:400", 77});
    }
  }

  // (a) Baseline: everything on one service, driven directly.
  std::vector<uint64_t> baseline_bits;
  std::map<std::string, double> baseline_spent;
  {
    Shard single;
    auto connected = net::Client::Connect("127.0.0.1", single.server.port());
    ASSERT_TRUE(connected.ok());
    std::unique_ptr<net::Client> client = std::move(connected).value();
    for (const Step& step : workload) {
      auto result =
          client->Query(MakeQuery(step.dataset, step.sql, step.seed));
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      ASSERT_TRUE(result.value().ok())
          << result.value().status().ToString();
      baseline_bits.push_back(Bits(result.value().response.released));
    }
    for (const std::string& ds : datasets) {
      baseline_spent[ds] = single.service.accountant().Spent(ds);
      EXPECT_EQ(single.service.Epoch(ds), 0u);
    }
  }

  // (b) The same workload through the router over four shards.
  std::vector<std::unique_ptr<Shard>> shards;
  std::vector<ShardAddress> addrs;
  for (int i = 0; i < 4; ++i) {
    shards.push_back(std::make_unique<Shard>());
    addrs.push_back(shards.back()->address());
  }
  Router router(addrs);
  ASSERT_TRUE(router.Start().ok());
  ASSERT_TRUE(WaitFor([&] {
    for (size_t i = 0; i < addrs.size(); ++i) {
      if (!router.ShardHealthy(i)) return false;
    }
    return true;
  }));

  auto connected = net::Client::Connect("127.0.0.1", router.port());
  ASSERT_TRUE(connected.ok());
  std::unique_ptr<net::Client> client = std::move(connected).value();
  for (size_t i = 0; i < workload.size(); ++i) {
    const Step& step = workload[i];
    auto result = client->Query(MakeQuery(step.dataset, step.sql, step.seed));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_TRUE(result.value().ok()) << result.value().status().ToString();
    EXPECT_EQ(Bits(result.value().response.released), baseline_bits[i])
        << "step " << i << " (" << step.dataset << ", " << step.sql << ")";
  }

  // Placement is real: with 6 datasets on 4 shards at least two shards own
  // something, and every dataset's budget lives wholly on its ring owner.
  std::set<size_t> owners;
  for (const std::string& ds : datasets) {
    const size_t owner = router.ring().ShardFor(ds);
    owners.insert(owner);
    for (size_t s = 0; s < shards.size(); ++s) {
      const double spent = shards[s]->service.accountant().Spent(ds);
      if (s == owner) {
        EXPECT_DOUBLE_EQ(spent, baseline_spent[ds]) << ds;
      } else {
        EXPECT_DOUBLE_EQ(spent, 0.0) << ds << " leaked onto shard " << s;
      }
      EXPECT_EQ(shards[s]->service.Epoch(ds), 0u);
    }
  }
  EXPECT_GT(owners.size(), 1u);
  router.Stop();
}

TEST(ClusterRouterTest, PerShardInFlightCapRejectsWithResourceExhausted) {
  constexpr size_t kCap = Router::kMaxInflightPerShard;
  // A default shard: every routed query rides the router's one link to
  // it, so the router's cap must not exceed what the shard takes per
  // connection, or the shard refuses first and the router never sees it.
  service::ServiceConfig svc_cfg = FastConfig();
  svc_cfg.budget_per_dataset = 1e9;
  Shard shard(svc_cfg);
  Router router({shard.address()});
  ASSERT_TRUE(router.Start().ok());
  ASSERT_TRUE(WaitFor([&] { return router.ShardHealthy(0); }));

  // Two client connections share the load, so neither reaches the
  // router's own per-connection pipeline cap.
  std::vector<std::unique_ptr<net::Client>> clients;
  for (int i = 0; i < 2; ++i) {
    auto connected = net::Client::Connect("127.0.0.1", router.port());
    ASSERT_TRUE(connected.ok());
    clients.push_back(std::move(connected).value());
  }

  // The first query parks behind the gate and the rest queue behind it on
  // the shard, which fills the cap; the next query overflows it.
  std::vector<std::pair<net::Client*, uint64_t>> gated;
  for (size_t i = 0; i < kCap; ++i) {
    net::Client* client = clients[i % 2].get();
    auto tag = client->Send(MakeQuery("ds", "gate:200", i + 1));
    ASSERT_TRUE(tag.ok());
    gated.emplace_back(client, tag.value());
  }
  ASSERT_TRUE(WaitFor([&] { return router.stats().routed == kCap; }));
  auto tag2 = clients[0]->Send(MakeQuery("ds", "count:200", kCap + 1));
  ASSERT_TRUE(tag2.ok());
  auto rejected = clients[0]->Await(tag2.value());
  ASSERT_TRUE(rejected.ok()) << rejected.status().ToString();
  EXPECT_EQ(rejected.value().code, StatusCode::kResourceExhausted);

  shard.gate->store(true, std::memory_order_release);
  for (auto [client, tag] : gated) {
    auto result = client->Await(tag);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result.value().ok()) << result.value().status().ToString();
  }
  EXPECT_EQ(router.stats().rejected_backpressure, 1u);
  router.Stop();
}

// A client that leaves while its query is on a shard costs nothing: the
// shard's reply is dropped, the router keeps serving, and Stop() does not
// wait out the drain timeout for an answer nobody will read.
TEST(ClusterRouterTest, ClientLeavingMidRouteDropsTheReplyAndLeaksNothing) {
  Shard shard;
  Router router({shard.address()});
  ASSERT_TRUE(router.Start().ok());
  ASSERT_TRUE(WaitFor([&] { return router.ShardHealthy(0); }));

  auto leaving = net::Client::Connect("127.0.0.1", router.port());
  ASSERT_TRUE(leaving.ok());
  ASSERT_TRUE(leaving.value()->Send(MakeQuery("ds", "gate:200", 1)).ok());
  ASSERT_TRUE(WaitFor([&] { return router.stats().routed == 1; }));
  leaving.value().reset();

  // Wait until the router has seen the close: the fresh client is then
  // the only open connection.
  auto connected = net::Client::Connect("127.0.0.1", router.port());
  ASSERT_TRUE(connected.ok());
  std::unique_ptr<net::Client> fresh = std::move(connected).value();
  ASSERT_TRUE(WaitFor([&] {
    auto stats = fresh->Stats();
    return stats.ok() && StatsCounter(stats.value(), "open_connections") == 1;
  }));

  shard.gate->store(true, std::memory_order_release);
  auto result = fresh->Query(MakeQuery("ds", "count:100", 2));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.value().ok()) << result.value().status().ToString();

  // Stop() drains until the orphaned reply is in too; a route that was
  // never accounted as answered would hold it for the whole drain timeout.
  const auto stop_start = std::chrono::steady_clock::now();
  router.Stop();
  const auto stop_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - stop_start)
                           .count();
  EXPECT_LT(stop_ms, net::kDrainTimeoutMs / 5);
  // Both queries reached the shard; only the fresh client got a reply.
  EXPECT_EQ(router.stats().routed, 2u);
  EXPECT_EQ(router.stats().replies, 1u);
}

TEST(ClusterRouterTest, DeadShardRejectsWithUnavailable) {
  // Nothing listens on the address: the link never turns healthy.
  auto port = PickFreePort();
  ASSERT_TRUE(port.ok());
  RouterConfig cfg;
  cfg.backoff_max_ms = 50.0;
  std::vector<ShardAddress> dead = {{"127.0.0.1", port.value()}};
  Router router(dead, cfg);
  ASSERT_TRUE(router.Start().ok());

  auto connected = net::Client::Connect("127.0.0.1", router.port());
  ASSERT_TRUE(connected.ok());
  std::unique_ptr<net::Client> client = std::move(connected).value();
  auto result = client->Query(MakeQuery("ds", "count:100", 1));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().code, StatusCode::kUnavailable);
  EXPECT_GE(router.stats().rejected_unavailable, 1u);
  router.Stop();
}

TEST(ClusterRouterTest, ShardDeathFailsInFlightQueriesOver) {
  RouterConfig cfg;
  cfg.backoff_max_ms = 100.0;
  auto shard = std::make_unique<Shard>();
  const ShardAddress addr = shard->address();
  Router router({addr}, cfg);
  ASSERT_TRUE(router.Start().ok());
  ASSERT_TRUE(WaitFor([&] { return router.ShardHealthy(0); }));

  auto connected = net::Client::Connect("127.0.0.1", router.port());
  ASSERT_TRUE(connected.ok());
  std::unique_ptr<net::Client> client = std::move(connected).value();

  // Park a query behind the gate, then kill the shard under it. The
  // server's destructor force-closes after its drain timeout; shorten the
  // wait by opening the gate right after Stop() starts tearing down.
  auto tag = client->Send(MakeQuery("ds", "gate:200", 1));
  ASSERT_TRUE(tag.ok());
  ASSERT_TRUE(WaitFor([&] { return router.stats().routed == 1; }));

  std::thread killer([&] {
    shard->gate->store(true, std::memory_order_release);
    shard.reset();  // closes the shard's sockets
  });
  auto result = client->Await(tag.value());
  killer.join();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Either the shard finished the release before its sockets died (OK) or
  // the router failed the route over (UNAVAILABLE). Both are acceptable
  // outcomes of this race; what is NOT acceptable is a hang or a broken
  // connection, which Await would surface as a transport error.
  if (!result.value().ok()) {
    EXPECT_EQ(result.value().code, StatusCode::kUnavailable);
    EXPECT_GE(router.stats().failed_over_inflight, 1u);
  }

  // The client connection survives a shard failover.
  auto after = client->Query(MakeQuery("other", "count:100", 2));
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  router.Stop();
}

TEST(ClusterRouterTest, DuplicateClientTagsAcrossConnectionsBothAnswered) {
  // Two clients may pick the SAME client_tag: the router's re-tagging must
  // keep their responses apart. One query is valid, the other uses a SQL
  // the shard rejects — each client must get ITS outcome back.
  auto shard = std::make_unique<Shard>();
  shard->gate->store(true, std::memory_order_release);
  Router router({shard->address()});
  ASSERT_TRUE(router.Start().ok());
  ASSERT_TRUE(WaitFor([&] { return router.ShardHealthy(0); }));

  auto conn_a = net::Client::Connect("127.0.0.1", router.port());
  auto conn_b = net::Client::Connect("127.0.0.1", router.port());
  ASSERT_TRUE(conn_a.ok() && conn_b.ok());
  std::unique_ptr<net::Client> a = std::move(conn_a).value();
  std::unique_ptr<net::Client> b = std::move(conn_b).value();

  net::WireQuery good = MakeQuery("ds", "count:100", 1);
  good.client_tag = 7;
  net::WireQuery bad = MakeQuery("ds", "nonsense:1", 2);
  bad.client_tag = 7;  // same tag, different connection
  auto tag_a = a->Send(good);
  auto tag_b = b->Send(bad);
  ASSERT_TRUE(tag_a.ok() && tag_b.ok());

  auto result_a = a->Await(tag_a.value());
  auto result_b = b->Await(tag_b.value());
  ASSERT_TRUE(result_a.ok()) << result_a.status().ToString();
  ASSERT_TRUE(result_b.ok()) << result_b.status().ToString();
  EXPECT_TRUE(result_a.value().ok()) << result_a.value().message;
  EXPECT_EQ(result_b.value().code, StatusCode::kInvalidArgument)
      << result_b.value().message;
  router.Stop();
}

TEST(ClusterRouterTest, ReconnectsAfterShardRestartAtSameAddress) {
  RouterConfig cfg;
  cfg.backoff_max_ms = 50.0;
  auto shard = std::make_unique<Shard>();
  // Restart needs the same port; grab it before killing the first server.
  const uint16_t port = shard->server.port();
  Router router({ShardAddress{"127.0.0.1", port}}, cfg);
  ASSERT_TRUE(router.Start().ok());
  ASSERT_TRUE(WaitFor([&] { return router.ShardHealthy(0); }));

  shard.reset();
  ASSERT_TRUE(WaitFor([&] { return !router.ShardHealthy(0); }));

  // New shard process stand-in at the same address.
  service::ServiceConfig cfg2 = FastConfig();
  auto gate = std::make_shared<std::atomic<bool>>(true);
  service::UpaService service2(&Ctx(), cfg2);
  net::ServerConfig net_cfg;
  net_cfg.port = port;
  net::Server server2(&service2, ToyCompiler(gate), net_cfg);
  Status started = server2.Start();
  // The old socket lingers in TIME_WAIT occasionally; retry briefly.
  for (int i = 0; i < 50 && !started.ok(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    started = server2.Start();
  }
  ASSERT_TRUE(started.ok()) << started.ToString();
  ASSERT_TRUE(WaitFor([&] { return router.ShardHealthy(0); }));

  auto connected = net::Client::Connect("127.0.0.1", router.port());
  ASSERT_TRUE(connected.ok());
  std::unique_ptr<net::Client> client = std::move(connected).value();
  auto result = client->Query(MakeQuery("ds", "count:300", 3));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.value().ok()) << result.value().status().ToString();
  EXPECT_GE(router.stats().shard_link_failures, 1u);
  router.Stop();
  server2.Stop();
}

}  // namespace
}  // namespace upa::cluster
