// Loopback tests of the TCP front door (src/net/server.h, client.h).
//
// The centrepiece is the differential test: N threaded wire clients against
// a served UpaService, then the same request sequence replayed sequentially
// on a fresh in-process service — released values, enforcer decisions,
// registry contents and accountant balances must be BIT-identical, proving
// the network layer adds transport and nothing else. The rest covers the
// protection machinery: deadlines, oversize frames, slow-loris writes,
// pipelining caps, mid-request disconnects (budget refunded, connection
// reaped), idle reaping, the connection cap, and graceful stop. Framing,
// slow writers and graceful stop run against both front doors: the server
// alone and a cluster::Router in front of it, and so does /stats.
#include "net/server.h"

#include <dirent.h>
#include <fcntl.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include "cluster/router.h"
#include "common/hash.h"
#include "net/client.h"
#include "upa/simple_query.h"

namespace upa::net {
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

/// Pool for gated queries only. A gated map chunk spins until the test
/// opens the gate, wedging whichever thread runs it — and the shared
/// pool's help-running (a waiting ParallelFor pops queued chunks) would
/// let an UNRELATED query's runner pick up a spinning chunk and starve
/// the very queries the tests race against the gate. A separate pool
/// confines the spinning.
engine::ExecContext& GateCtx() {
  static engine::ExecContext ctx(
      engine::ExecConfig{.threads = 2, .default_partitions = 4});
  return ctx;
}

core::QueryInstance GatedQuery(size_t n,
                               std::shared_ptr<std::atomic<bool>> gate,
                               const std::string& name) {
  core::SimpleQuerySpec<int> spec;
  spec.name = name;
  spec.ctx = &GateCtx();
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

/// Toy wire-SQL: "count:<n>" → counting query over n records; "gate:<n>" →
/// the same but its map phase blocks on `gate`. The query name is the SQL
/// text, so a replayed in-process request with the same text derives the
/// same fingerprint and hits the same cache entries.
QueryCompiler TestCompiler(std::shared_ptr<std::atomic<bool>> gate) {
  return [gate](const WireQuery& wire) -> Result<core::QueryInstance> {
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
  // Noise stays ON: the differential claim is strongest when the released
  // value includes the seeded Laplace draw.
  return config;
}

/// Poll until `pred` or ~5s. The net tests must not hang forever on a bug.
bool WaitFor(const std::function<bool()>& pred) {
  for (int i = 0; i < 5000; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

struct ServerHarness {
  explicit ServerHarness(ServerConfig net_cfg = {},
                         service::ServiceConfig svc_cfg = FastConfig())
      : gate(std::make_shared<std::atomic<bool>>(false)),
        service(&Ctx(), svc_cfg),
        server(&service, TestCompiler(gate), net_cfg) {
    Status started = server.Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
  }

  std::unique_ptr<Client> Connect() {
    auto connected = Client::Connect("127.0.0.1", server.port());
    EXPECT_TRUE(connected.ok()) << connected.status().ToString();
    return std::move(connected).value();
  }

  std::shared_ptr<std::atomic<bool>> gate;
  service::UpaService service;
  Server server;
};

WireQuery MakeWireQuery(const std::string& tenant, const std::string& dataset,
                        const std::string& sql, uint64_t seed) {
  WireQuery query;
  query.tenant = tenant;
  query.dataset_id = dataset;
  query.epsilon = 0.1;
  query.seed = seed;
  query.sql = sql;
  return query;
}

TEST(NetServer, AnswersACountQueryEndToEnd) {
  ServerHarness harness;
  auto client = harness.Connect();
  auto result = client->Query(
      MakeWireQuery("alice", "ds", "count:5000", /*seed=*/1));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(result.value().ok()) << result.value().status().ToString();
  const service::QueryResponse& response = result.value().response;
  EXPECT_NEAR(response.released, 5000.0, 200.0);
  EXPECT_DOUBLE_EQ(response.epsilon, 0.1);
  EXPECT_EQ(harness.service.accountant().Spent("ds"), 0.1);
}

// The acceptance-criteria differential: concurrent wire clients vs a
// sequential in-process replay, bit for bit.
TEST(NetServer, LoopbackReleasesAreBitIdenticalToInProcessReplay) {
  constexpr size_t kClients = 4;
  constexpr size_t kQueries = 5;

  // Phase 1: threaded clients over loopback, one tenant + one private
  // dataset per client (the bit-identity regime: one writer per dataset).
  std::vector<std::vector<WireResult>> over_wire(kClients);
  {
    ServerHarness harness;
    std::vector<std::thread> workers;
    for (size_t i = 0; i < kClients; ++i) {
      workers.emplace_back([&, i] {
        auto client = harness.Connect();
        for (size_t q = 0; q < kQueries; ++q) {
          std::string sql = "count:" + std::to_string(2000 + 100 * i);
          auto result = client->Query(MakeWireQuery(
              "tenant" + std::to_string(i), "ds" + std::to_string(i), sql,
              /*seed=*/1000 * i + q));
          ASSERT_TRUE(result.ok()) << result.status().ToString();
          ASSERT_TRUE(result.value().ok())
              << result.value().status().ToString();
          over_wire[i].push_back(result.value());
        }
      });
    }
    for (auto& worker : workers) worker.join();

    // Phase 2: the same sequences, replayed sequentially in-process on a
    // fresh service. Everything observable must match bit for bit.
    service::UpaService replay(&Ctx(), FastConfig());
    for (size_t i = 0; i < kClients; ++i) {
      for (size_t q = 0; q < kQueries; ++q) {
        std::string sql = "count:" + std::to_string(2000 + 100 * i);
        service::QueryRequest request;
        request.tenant = "tenant" + std::to_string(i);
        request.dataset_id = "ds" + std::to_string(i);
        request.query = CountQuery(2000 + 100 * i, sql);
        request.epsilon = 0.1;
        request.seed = 1000 * i + q;
        request.fingerprint = Fnv1a(sql);
        auto expected = replay.Execute(request);
        ASSERT_TRUE(expected.ok()) << expected.status().ToString();
        const service::QueryResponse& want = expected.value();
        const service::QueryResponse& got = over_wire[i][q].response;
        EXPECT_EQ(Bits(want.released), Bits(got.released))
            << "client " << i << " query " << q;
        EXPECT_EQ(Bits(want.epsilon), Bits(got.epsilon));
        EXPECT_EQ(Bits(want.local_sensitivity), Bits(got.local_sensitivity));
        EXPECT_EQ(Bits(want.out_range.lo), Bits(got.out_range.lo));
        EXPECT_EQ(Bits(want.out_range.hi), Bits(got.out_range.hi));
        EXPECT_EQ(want.attack_suspected, got.attack_suspected);
        EXPECT_EQ(want.records_removed, got.records_removed);
        EXPECT_EQ(want.degenerate_sensitivity, got.degenerate_sensitivity);
        EXPECT_EQ(want.sensitivity_cache_hit, got.sensitivity_cache_hit);
        EXPECT_EQ(want.dataset_epoch, got.dataset_epoch);
      }
    }

    // Registry contents and accountant balances, bit for bit.
    for (size_t i = 0; i < kClients; ++i) {
      std::string ds = "ds" + std::to_string(i);
      auto served = harness.service.DebugState(ds);
      auto replayed = replay.DebugState(ds);
      EXPECT_EQ(served.epoch, replayed.epoch);
      EXPECT_EQ(Bits(harness.service.accountant().Spent(ds)),
                Bits(replay.accountant().Spent(ds)));
      ASSERT_EQ(served.registry.size(), replayed.registry.size());
      for (size_t r = 0; r < served.registry.size(); ++r) {
        ASSERT_EQ(served.registry[r].size(), replayed.registry[r].size());
        if (!served.registry[r].empty()) {
          EXPECT_EQ(std::memcmp(served.registry[r].data(),
                                replayed.registry[r].data(),
                                served.registry[r].size() * sizeof(double)),
                    0)
              << "registry row " << r << " of " << ds;
        }
      }
    }
  }
}

TEST(NetServer, ResponsesCompleteOutOfOrderAcrossDatasets) {
  ServerHarness harness;
  auto client = harness.Connect();
  // Query A blocks on the gate; query B (other tenant + dataset) is free.
  auto tag_a = client->Send(MakeWireQuery("a", "dsa", "gate:500", 1));
  ASSERT_TRUE(tag_a.ok());
  auto tag_b = client->Send(MakeWireQuery("b", "dsb", "count:500", 1));
  ASSERT_TRUE(tag_b.ok());
  // B's response arrives while A is still running: Await must match by
  // client_tag, not arrival order.
  auto b = client->Await(tag_b.value());
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_TRUE(b.value().ok());
  harness.gate->store(true, std::memory_order_release);
  auto a = client->Await(tag_a.value());
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  EXPECT_TRUE(a.value().ok());
}

TEST(NetServer, QueuedDeadlineExpiresOverTheWire) {
  ServerHarness harness;
  auto client = harness.Connect();
  // First request occupies the tenant; the second's deadline expires while
  // queued behind it and the watchdog fails it with DEADLINE_EXCEEDED.
  auto gated = client->Send(MakeWireQuery("t", "ds", "gate:500", 1));
  ASSERT_TRUE(gated.ok());
  WireQuery late = MakeWireQuery("t", "ds", "count:500", 2);
  late.deadline_ms = 30;
  auto tag = client->Send(late);
  ASSERT_TRUE(tag.ok());
  auto result = client->Await(tag.value());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().code, StatusCode::kDeadlineExceeded);
  harness.gate->store(true, std::memory_order_release);
  auto first = client->Await(gated.value());
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first.value().ok());
  // Only the released query was charged.
  EXPECT_EQ(Bits(harness.service.accountant().Spent("ds")), Bits(0.1));
}

TEST(NetServer, MidRequestDisconnectRefundsBudgetAndReapsConnection) {
  ServerHarness harness;
  {
    auto client = harness.Connect();
    auto tag = client->Send(MakeWireQuery("t", "ds", "gate:500", 1));
    ASSERT_TRUE(tag.ok());
    // Wait until the request is charged (it runs, blocked on the gate).
    ASSERT_TRUE(WaitFor(
        [&] { return harness.service.accountant().Spent("ds") > 0.0; }));
    // Client vanishes mid-request.
  }
  // The server reaps the connection and trips the request's cancel token.
  ASSERT_TRUE(WaitFor(
      [&] { return harness.server.stats().disconnect_cancels >= 1; }));
  ASSERT_TRUE(
      WaitFor([&] { return harness.server.stats().open_connections == 0; }));
  harness.gate->store(true, std::memory_order_release);
  // The run observes the cancellation before releasing → full refund.
  ASSERT_TRUE(WaitFor(
      [&] { return harness.service.accountant().Spent("ds") == 0.0; }));
}

TEST(NetServer, PipelineCapRejectsExcessRequestsWithResourceExhausted) {
  ServerConfig net_cfg;
  net_cfg.max_pipelined_per_connection = 2;
  ServerHarness harness(net_cfg);
  auto client = harness.Connect();
  std::vector<uint64_t> tags;
  for (int i = 0; i < 4; ++i) {
    // All four target one tenant: the first blocks on the gate, so none
    // complete until the gate opens and the connection's in-flight count
    // climbs deterministically.
    auto tag = client->Send(
        MakeWireQuery("t", "ds", i == 0 ? "gate:500" : "count:500", 10 + i));
    ASSERT_TRUE(tag.ok());
    tags.push_back(tag.value());
  }
  // Requests 3 and 4 exceeded the cap: rejected without touching the
  // service (their rejections arrive while 1 and 2 are still pending).
  auto third = client->Await(tags[2]);
  ASSERT_TRUE(third.ok()) << third.status().ToString();
  EXPECT_EQ(third.value().code, StatusCode::kResourceExhausted);
  auto fourth = client->Await(tags[3]);
  ASSERT_TRUE(fourth.ok());
  EXPECT_EQ(fourth.value().code, StatusCode::kResourceExhausted);
  harness.gate->store(true, std::memory_order_release);
  EXPECT_TRUE(client->Await(tags[0]).value().ok());
  EXPECT_TRUE(client->Await(tags[1]).value().ok());
}

TEST(NetServer, ConnectionCapClosesSurplusClients) {
  ServerHarness harness;
  std::vector<std::unique_ptr<Client>> open;
  open.push_back(harness.Connect());
  ASSERT_TRUE(
      open[0]->Query(MakeWireQuery("t", "ds", "count:100", 1)).ok());
  // Fill the cap, and wait until the server holds every connection.
  while (open.size() < Server::kMaxConnections) {
    open.push_back(harness.Connect());
  }
  ASSERT_TRUE(WaitFor([&] {
    return harness.server.stats().open_connections == Server::kMaxConnections;
  }));
  // The connection past the cap is accepted then immediately closed.
  auto surplus = harness.Connect();
  auto result = surplus->Query(MakeWireQuery("t", "ds", "count:100", 2));
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(WaitFor(
      [&] { return harness.server.stats().rejected_connections >= 1; }));
  // The first connection still works.
  EXPECT_TRUE(open[0]->Query(MakeWireQuery("t", "ds", "count:100", 3)).ok());
}

TEST(NetServer, IdleConnectionsAreReaped) {
  ServerConfig net_cfg;
  net_cfg.idle_timeout_ms = 50;
  ServerHarness harness(net_cfg);
  auto client = harness.Connect();
  ASSERT_TRUE(WaitFor([&] { return harness.server.stats().idle_closed >= 1; }));
  auto frame = client->ReadFrame(/*timeout_ms=*/2000);
  EXPECT_FALSE(frame.ok());
}

TEST(NetServer, UncompilableQueryIsAnsweredNotDropped) {
  ServerHarness harness;
  auto client = harness.Connect();
  auto result = client->Query(MakeWireQuery("t", "ds", "DROP TABLE", 1));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().code, StatusCode::kInvalidArgument);
  // The connection survives a compile error (unlike a framing error).
  EXPECT_TRUE(client->Query(MakeWireQuery("t", "ds", "count:100", 2)).ok());
}

// ---------------------------------------------------------------------------
// Front doors: a router's client side is a net::Server too, so framing
// errors, slow writers, graceful stop and /stats must behave the same at
// the server alone and at a router in front of it.
// ---------------------------------------------------------------------------

enum class FrontDoor { kServer, kRouter };

// Names the ctest cases (".../Server", ".../Router").
void PrintTo(FrontDoor door, std::ostream* os) {
  *os << (door == FrontDoor::kServer ? "Server" : "Router");
}

/// A fresh served stack, reached either at the server itself or through a
/// router whose only shard is that server.
struct FrontDoorStack {
  explicit FrontDoorStack(FrontDoor door) {
    if (door == FrontDoor::kServer) return;
    router = std::make_unique<cluster::Router>(
        std::vector<cluster::ShardAddress>{{"127.0.0.1", shard.server.port()}});
    Status started = router->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
    EXPECT_TRUE(WaitFor([&] { return router->ShardHealthy(0); }));
  }

  std::unique_ptr<Client> Connect() {
    const uint16_t port =
        router != nullptr ? router->port() : shard.server.port();
    auto connected = Client::Connect("127.0.0.1", port);
    EXPECT_TRUE(connected.ok()) << connected.status().ToString();
    return std::move(connected).value();
  }

  uint64_t protocol_errors() const {
    const Server& door = router != nullptr ? router->server() : shard.server;
    return door.stats().protocol_errors;
  }

  /// Graceful stop of the door the client talks to.
  void Stop() {
    if (router != nullptr) {
      router->Stop();
    } else {
      shard.server.Stop();
    }
  }

  ServerHarness shard;
  std::unique_ptr<cluster::Router> router;  // destroyed before `shard`
};

class NetServerFrontDoor : public ::testing::TestWithParam<FrontDoor> {};

TEST_P(NetServerFrontDoor, OversizeFrameIsRejectedWithErrorAndClose) {
  FrontDoorStack stack(GetParam());
  auto client = stack.Connect();
  // A header declaring one byte over the cap condemns the stream before
  // any of its payload arrives.
  const std::string big = EncodeFrame(
      FrameType::kQueryRequest, std::string(kDefaultMaxFrameBytes + 1, 'x'));
  ASSERT_TRUE(
      client->SendBytes(std::string_view(big).substr(0, kFrameHeaderBytes))
          .ok());
  auto frame = client->ReadFrame();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  ASSERT_EQ(frame.value().type, FrameType::kError);
  Status error = Status::Ok();
  ASSERT_TRUE(DecodeErrorPayload(frame.value().payload, &error).ok());
  EXPECT_EQ(error.code(), StatusCode::kResourceExhausted);
  // The stream is condemned: the door closes after the error frame.
  auto next = client->ReadFrame();
  EXPECT_FALSE(next.ok());
}

TEST_P(NetServerFrontDoor, CorruptFrameIsRejectedWithErrorAndClose) {
  FrontDoorStack stack(GetParam());
  auto client = stack.Connect();
  std::string bytes = EncodeQueryFrame(MakeWireQuery("t", "ds", "count:9", 1));
  bytes[kFrameHeaderBytes + 3] ^= 0x40;  // flip one payload bit
  ASSERT_TRUE(client->SendBytes(bytes).ok());
  auto frame = client->ReadFrame();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  ASSERT_EQ(frame.value().type, FrameType::kError);
  Status error = Status::Ok();
  ASSERT_TRUE(DecodeErrorPayload(frame.value().payload, &error).ok());
  EXPECT_EQ(error.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(WaitFor([&] { return stack.protocol_errors() >= 1; }));
}

TEST_P(NetServerFrontDoor, SlowLorisByteAtATimeRequestStillCompletes) {
  FrontDoorStack stack(GetParam());
  auto client = stack.Connect();
  std::string bytes =
      EncodeQueryFrame(MakeWireQuery("t", "ds", "count:500", 1));
  for (size_t i = 0; i < bytes.size(); ++i) {
    ASSERT_TRUE(client->SendBytes(std::string_view(bytes).substr(i, 1)).ok());
    if (i % 17 == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  auto frame = client->ReadFrame(/*timeout_ms=*/20000);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  ASSERT_EQ(frame.value().type, FrameType::kQueryResponse);
  WireResult result;
  ASSERT_TRUE(DecodeResultPayload(frame.value().payload, &result).ok());
  EXPECT_TRUE(result.ok()) << result.status().ToString();
}

// A request whose bytes reached the door's socket just before Stop() must
// still be answered: the drain reads what the kernel already holds before
// it judges the door quiet. Repeated on fresh stacks because the race is
// between the stopping thread and the loop thread.
TEST_P(NetServerFrontDoor, GracefulStopDrainsInFlightResponses) {
  for (int cycle = 0; cycle < 20; ++cycle) {
    FrontDoorStack stack(GetParam());
    auto client = stack.Connect();
    auto tag = client->Send(MakeWireQuery("t", "ds", "count:2000", 1));
    ASSERT_TRUE(tag.ok());
    stack.Stop();  // must flush the response before closing
    auto result = client->Await(tag.value());
    ASSERT_TRUE(result.ok()) << "cycle " << cycle << ": "
                             << result.status().ToString();
    EXPECT_TRUE(result.value().ok()) << "cycle " << cycle;
  }
}

// Each door answers /stats with its own block first — the service's
// report at the server, the routing counters and shard states at the
// router — then the "== net ==" block of the server the client reached.
TEST_P(NetServerFrontDoor, StatsTravelOverTheWire) {
  FrontDoorStack stack(GetParam());
  auto client = stack.Connect();
  ASSERT_TRUE(client->Query(MakeWireQuery("t", "ds", "count:500", 1)).ok());
  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  const std::string& text = stats.value();
  const size_t net = text.find("== net ==");
  ASSERT_NE(net, std::string::npos) << text;
  if (stack.router != nullptr) {
    EXPECT_LT(text.find("upa router"), net) << text;
    EXPECT_LT(text.find("healthy"), net) << text;
  } else {
    EXPECT_LT(text.find("datasets:"), net) << text;
  }
  const size_t frames_in = text.find("frames_in", net);
  ASSERT_NE(frames_in, std::string::npos) << text;
  EXPECT_GE(std::stoull(text.substr(frames_in + 9)), 1u) << text;
}

INSTANTIATE_TEST_SUITE_P(FrontDoors, NetServerFrontDoor,
                         ::testing::Values(FrontDoor::kServer,
                                           FrontDoor::kRouter));

// ---------------------------------------------------------------------------
// Client edge: tag bookkeeping, the stale-reply poisoning rule, and fd
// hygiene. These guard the contract the cluster router leans on — a Client
// whose request/response stream desynchronizes must fail loudly and stay
// failed, never hand a response to the wrong caller.
// ---------------------------------------------------------------------------

/// A connected AF_UNIX socket pair: the client end (non-blocking, wrapped in
/// a Client) and the raw peer end the test scripts byte-for-byte. Lets a
/// test play "malicious server" without a listener.
struct ScriptedPeer {
  ScriptedPeer() {
    int fds[2] = {-1, -1};
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    peer_fd = fds[0];
    int flags = ::fcntl(fds[1], F_GETFL, 0);
    ::fcntl(fds[1], F_SETFL, flags | O_NONBLOCK);
    client = Client::FromConnectedFd(fds[1]);
  }
  ~ScriptedPeer() {
    if (peer_fd >= 0) ::close(peer_fd);
  }

  void WriteAll(std::string_view bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      ssize_t n = ::send(peer_fd, bytes.data() + sent, bytes.size() - sent,
                         MSG_NOSIGNAL);
      ASSERT_GT(n, 0);
      sent += static_cast<size_t>(n);
    }
  }

  int peer_fd = -1;
  std::unique_ptr<Client> client;
};

TEST(NetClientEdge, DuplicateInFlightTagIsRejected) {
  ServerHarness harness;
  auto client = harness.Connect();
  WireQuery first = MakeWireQuery("t", "ds", "count:500", 1);
  first.client_tag = 7;
  ASSERT_TRUE(client->Send(first).ok());
  // Re-sending tag 7 while it is outstanding would make the response
  // matching ambiguous; the client must refuse before any bytes go out.
  WireQuery dup = MakeWireQuery("t", "ds", "count:500", 2);
  dup.client_tag = 7;
  auto rejected = client->Send(dup);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  // The rejection is local bookkeeping, not poison: the original request
  // still completes and the connection stays healthy.
  auto result = client->Await(7);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.value().ok());
  EXPECT_TRUE(client->Query(MakeWireQuery("t", "ds", "count:100", 3)).ok());
}

TEST(NetClientEdge, AwaitOfNeverSentTagFailsFastWithoutPoisoning) {
  ServerHarness harness;
  auto client = harness.Connect();
  auto result = client->Await(/*tag=*/999, /*timeout_ms=*/5000);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  // Must fail immediately (no socket wait) and leave the connection usable.
  EXPECT_TRUE(client->Query(MakeWireQuery("t", "ds", "count:100", 1)).ok());
}

TEST(NetClientEdge, ResponseForUnknownTagPoisonsTheConnection) {
  ScriptedPeer peer;
  auto sent = peer.client->Send(MakeWireQuery("t", "ds", "count:10", 1));
  ASSERT_TRUE(sent.ok());
  // The "server" answers a tag nothing is waiting for — a stale reply from
  // a request some earlier caller abandoned, or a server-side tag bug.
  WireResult stale;
  stale.client_tag = sent.value() + 1000;
  peer.WriteAll(EncodeResultFrame(stale));
  auto result = peer.client->Await(sent.value(), /*timeout_ms=*/2000);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("unknown client_tag"),
            std::string::npos)
      << result.status().ToString();
  // Poison is terminal: every later call fails the same way instead of
  // resynchronizing onto a stream whose pairing is lost.
  auto after = peer.client->Send(MakeWireQuery("t", "ds", "count:10", 2));
  ASSERT_FALSE(after.ok());
  EXPECT_NE(after.status().message().find("poisoned"), std::string::npos);
}

TEST(NetClientEdge, TimedOutAwaitPoisonsSoALateReplyIsNeverDelivered) {
  ScriptedPeer peer;
  auto sent = peer.client->Send(MakeWireQuery("t", "ds", "count:10", 1));
  ASSERT_TRUE(sent.ok());
  // No reply within the deadline: the waiter gives up...
  auto timed_out = peer.client->Await(sent.value(), /*timeout_ms=*/50);
  ASSERT_FALSE(timed_out.ok());
  EXPECT_EQ(timed_out.status().code(), StatusCode::kDeadlineExceeded);
  // ...and the correctly-tagged reply lands late. Delivering it now would
  // hand a response to a caller that already reported failure (and, for a
  // Query() user reusing the connection, potentially to the WRONG request).
  // The timeout must have latched the connection broken.
  WireResult late;
  late.client_tag = sent.value();
  peer.WriteAll(EncodeResultFrame(late));
  auto retry = peer.client->Await(sent.value(), /*timeout_ms=*/2000);
  ASSERT_FALSE(retry.ok());
  EXPECT_EQ(retry.status().code(), StatusCode::kDeadlineExceeded);
}

size_t CountOpenFds() {
  size_t count = 0;
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return 0;
  while (::readdir(dir) != nullptr) ++count;
  ::closedir(dir);
  return count;
}

TEST(NetClientEdge, FailedConnectsLeakNoFds) {
  // A port that was just bound and released: connects to it are refused.
  int probe = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(probe, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(probe, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(
      ::getsockname(probe, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const uint16_t dead_port = ntohs(addr.sin_port);
  ::close(probe);

  const size_t before = CountOpenFds();
  for (int i = 0; i < 20; ++i) {
    auto refused = Client::Connect("127.0.0.1", dead_port, /*timeout_ms=*/500);
    EXPECT_FALSE(refused.ok());
  }
  EXPECT_EQ(CountOpenFds(), before);
}

}  // namespace
}  // namespace upa::net
