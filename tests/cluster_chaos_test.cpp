// Cross-PROCESS chaos for the cluster: real fork/exec'd upa_shard binaries
// (UPA_SHARD_BIN, planted by CMake), SIGKILLed at the worst moments, then
// restarted over the same journal dir.
//
// The two properties under test are the cluster's whole durability story:
//   1. Kill-mid-release conservation: a shard SIGKILLed while a query is
//      executing must recover to EXACTLY the acknowledged state — the
//      in-flight query's charge lived in memory only and dies with the
//      process, released bits for subsequent queries match a never-killed
//      control shard, and the budget arithmetic proves no charge leaked (a
//      leak would flip a later admission decision, which the test drives
//      to the edge).
//   2. Acknowledged-append durability: with journal fsync on, a SIGKILL
//      immediately after Append returns Ok (the journal/after_append abort
//      failpoint, which now fires AFTER fdatasync) must never lose the
//      appended record — observable as a journaled-but-unacknowledged
//      release still holding its budget charge after restart.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <signal.h>
#include <stdlib.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/router.h"
#include "cluster/shard_process.h"
#include "net/client.h"
#include "service/journal.h"

#ifndef UPA_SHARD_BIN
#error "UPA_SHARD_BIN must point at the upa_shard binary"
#endif
#ifndef UPA_ROUTER_BIN
#error "UPA_ROUTER_BIN must point at the upa_router binary"
#endif

namespace upa::cluster {
namespace {

namespace fs = std::filesystem;

bool WaitFor(const std::function<bool()>& pred, int timeout_ms = 15000) {
  for (int i = 0; i < timeout_ms; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

class ClusterChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmp[] = "/tmp/upa-cluster-chaos-XXXXXX";
    ASSERT_NE(::mkdtemp(tmp), nullptr);
    dir_ = tmp;
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  ShardProcessSpec ShardSpec(uint16_t port, const std::string& journal_dir,
                             double budget,
                             std::vector<std::string> env = {}) {
    ShardProcessSpec spec;
    spec.binary = UPA_SHARD_BIN;
    spec.args = {"--port",      std::to_string(port),
                 "--journal-dir", journal_dir,
                 "--threads",   "1",
                 "--sample-n",  "16",
                 "--budget",    std::to_string(budget)};
    spec.env = std::move(env);
    return spec;
  }

  static net::WireQuery MakeQuery(const std::string& dataset,
                                  const std::string& sql, uint64_t seed) {
    net::WireQuery query;
    query.tenant = "chaos";
    query.dataset_id = dataset;
    query.epsilon = 0.1;
    query.seed = seed;
    query.sql = sql;
    return query;
  }

  /// Connects directly to a shard, retrying while it boots/replays.
  static std::unique_ptr<net::Client> DialShard(uint16_t port) {
    for (int i = 0; i < 15000; ++i) {
      auto connected = net::Client::Connect("127.0.0.1", port, 1000);
      if (connected.ok()) return std::move(connected).value();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return nullptr;
  }

  std::string dir_;
};

TEST_F(ClusterChaosTest, KillMidReleaseRecoversBitIdenticalToControl) {
  // Budget arithmetic as the conservation oracle (epsilon 0.1/query,
  // budget 0.65): phase 1 spends 0.4 on both shards. The victim's killed
  // in-flight query charges 0.1 more in memory only — recovery MUST come
  // back at 0.4, or phase 3's two queries (0.2) would blow the budget at
  // 0.7 and the final admission would flip to OUT_OF_RANGE.
  const double kBudget = 0.65;
  auto victim_port = PickFreePort();
  auto control_port = PickFreePort();
  ASSERT_TRUE(victim_port.ok() && control_port.ok());

  ShardSupervisor::Options opts;
  opts.auto_restart = false;  // the test controls restart timing
  ShardSupervisor supervisor(opts);
  auto victim = supervisor.Launch(
      ShardSpec(victim_port.value(), dir_ + "/victim", kBudget));
  auto control = supervisor.Launch(
      ShardSpec(control_port.value(), dir_ + "/control", kBudget));
  ASSERT_TRUE(victim.ok()) << victim.status().ToString();
  ASSERT_TRUE(control.ok()) << control.status().ToString();

  RouterConfig router_cfg;
  router_cfg.backoff_initial_ms = 5.0;
  router_cfg.backoff_max_ms = 100.0;
  std::vector<ShardAddress> addrs = {{"127.0.0.1", victim_port.value()}};
  Router router(addrs, router_cfg);
  ASSERT_TRUE(router.Start().ok());
  ASSERT_TRUE(WaitFor([&] { return router.ShardHealthy(0); }));

  auto via_router = net::Client::Connect("127.0.0.1", router.port());
  ASSERT_TRUE(via_router.ok());
  std::unique_ptr<net::Client> victim_client = std::move(via_router).value();
  std::unique_ptr<net::Client> control_client =
      DialShard(control_port.value());
  ASSERT_NE(control_client, nullptr);

  // Phase 1: identical prefix on both shards; released bits must agree.
  for (uint64_t q = 0; q < 4; ++q) {
    auto v = victim_client->Query(MakeQuery("x", "count:500", 100 + q));
    auto c = control_client->Query(MakeQuery("x", "count:500", 100 + q));
    ASSERT_TRUE(v.ok() && c.ok());
    ASSERT_TRUE(v.value().ok()) << v.value().status().ToString();
    ASSERT_TRUE(c.value().ok()) << c.value().status().ToString();
    EXPECT_DOUBLE_EQ(v.value().response.released, c.value().response.released)
        << "prefix query " << q;
  }

  // Phase 2: a slow query on the victim, SIGKILL while it is executing.
  auto tag = victim_client->Send(MakeQuery("x", "lat:8:2000000", 777));
  ASSERT_TRUE(tag.ok());
  ASSERT_TRUE(WaitFor([&] { return router.stats().routed >= 5; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));  // mid-sleep
  ASSERT_TRUE(supervisor.Kill(victim.value(), SIGKILL).ok());
  auto failed = victim_client->Await(tag.value());
  ASSERT_TRUE(failed.ok()) << failed.status().ToString();
  EXPECT_EQ(failed.value().code, StatusCode::kUnavailable);
  EXPECT_GE(router.stats().failed_over_inflight, 1u);

  // Phase 3: restart over the same journal; the router's health probe
  // only passes once replay finished.
  ASSERT_TRUE(WaitFor([&] { return !supervisor.Alive(victim.value()); }));
  ASSERT_TRUE(supervisor.Respawn(victim.value()).ok());
  ASSERT_TRUE(WaitFor([&] { return router.ShardHealthy(0); }));

  // Same suffix on both (the control never saw the killed query at all —
  // its charge must have vanished from the victim too).
  for (uint64_t q = 0; q < 2; ++q) {
    auto v = victim_client->Query(MakeQuery("x", "count:600", 200 + q));
    auto c = control_client->Query(MakeQuery("x", "count:600", 200 + q));
    ASSERT_TRUE(v.ok() && c.ok());
    ASSERT_TRUE(v.value().ok())
        << "suffix query " << q
        << " rejected on the recovered shard — the killed query's charge "
           "leaked: "
        << v.value().status().ToString();
    ASSERT_TRUE(c.value().ok()) << c.value().status().ToString();
    EXPECT_DOUBLE_EQ(v.value().response.released, c.value().response.released)
        << "suffix query " << q;
  }

  // Both shards now sit at 0.6 of 0.65: one more 0.1 query must be
  // rejected on BOTH for the same reason (OUT_OF_RANGE, not a mismatch).
  auto v_edge = victim_client->Query(MakeQuery("x", "count:600", 999));
  auto c_edge = control_client->Query(MakeQuery("x", "count:600", 999));
  ASSERT_TRUE(v_edge.ok() && c_edge.ok());
  EXPECT_EQ(v_edge.value().code, StatusCode::kOutOfRange)
      << v_edge.value().message;
  EXPECT_EQ(c_edge.value().code, StatusCode::kOutOfRange)
      << c_edge.value().message;

  router.Stop();
  supervisor.StopAll();
}

// A malformed toy query gets an error reply and the shard lives on. Each of
// these once ended the process with an uncaught std::stoul / std::stol
// exception thrown on its event-loop thread.
TEST_F(ClusterChaosTest, MalformedToyQueryIsRefusedAndShardSurvives) {
  auto port = PickFreePort();
  ASSERT_TRUE(port.ok());
  ShardSupervisor::Options opts;
  opts.auto_restart = false;
  ShardSupervisor supervisor(opts);
  auto shard = supervisor.Launch(ShardSpec(port.value(), dir_ + "/j", 10.0));
  ASSERT_TRUE(shard.ok()) << shard.status().ToString();
  std::unique_ptr<net::Client> client = DialShard(port.value());
  ASSERT_NE(client, nullptr);
  const pid_t pid = supervisor.PidOf(shard.value());

  uint64_t seed = 1;
  for (const char* sql : {"count:abc", "count:99999999999999999999",
                          "lat:1:x", "lat:x:1"}) {
    auto reply = client->Query(MakeQuery("x", sql, seed++));
    ASSERT_TRUE(reply.ok()) << sql << ": " << reply.status().ToString();
    EXPECT_EQ(reply.value().code, StatusCode::kInvalidArgument)
        << sql << ": " << reply.value().message;
  }
  auto good = client->Query(MakeQuery("x", "count:10", seed++));
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_TRUE(good.value().ok()) << good.value().status().ToString();
  EXPECT_TRUE(supervisor.Alive(shard.value()));
  EXPECT_EQ(supervisor.PidOf(shard.value()), pid);
  supervisor.StopAll();
}

TEST_F(ClusterChaosTest, SigkillRightAfterDurableAppendLosesNothing) {
  // The shard aborts at journal/after_append hit 2 — kOpen(1), kRelease(2)
  // — i.e. immediately after the RELEASE record's fdatasync returned,
  // before any response is sent. The restarted shard must treat
  // that release as fully committed: its charge sticks (0.2 spent), so a
  // third 0.1 query over a 0.25 budget is rejected. Losing the record
  // would leave 0.1 spent and admit it.
  const double kBudget = 0.25;
  auto port = PickFreePort();
  ASSERT_TRUE(port.ok());

  ShardSupervisor::Options opts;
  opts.auto_restart = false;
  ShardSupervisor supervisor(opts);
  auto crashy = supervisor.Launch(ShardSpec(
      port.value(), dir_ + "/j", kBudget,
      {"UPA_FAILPOINTS=journal/after_append=abort:every(2)"}));
  ASSERT_TRUE(crashy.ok()) << crashy.status().ToString();

  std::unique_ptr<net::Client> client = DialShard(port.value());
  ASSERT_NE(client, nullptr);

  // Query 1 commits append 1 (kOpen) and then hits 2 with its own
  // kRelease: the abort lands exactly on the first query's release append.
  // That query is never acknowledged, yet its release must survive.
  auto q1 = client->Query(MakeQuery("x", "count:500", 1));
  // The process died after syncing the release: the client sees a
  // transport-level failure, never a response.
  ASSERT_FALSE(q1.ok() && q1.value().ok());
  ASSERT_TRUE(WaitFor([&] { return !supervisor.Alive(crashy.value()); }));

  // Restart WITHOUT the failpoint, same journal dir, same port.
  auto stable = supervisor.Launch(ShardSpec(port.value(), dir_ + "/j",
                                            kBudget));
  ASSERT_TRUE(stable.ok()) << stable.status().ToString();
  client = DialShard(port.value());
  ASSERT_NE(client, nullptr);

  // The unacknowledged-but-durable release holds 0.1. One more query fits
  // (0.2 of 0.25)...
  auto q2 = client->Query(MakeQuery("x", "count:500", 2));
  ASSERT_TRUE(q2.ok()) << q2.status().ToString();
  ASSERT_TRUE(q2.value().ok()) << q2.value().status().ToString();
  // ...and the third must be rejected. If the synced append had been lost,
  // the ledger would hold only q2's 0.1 and this would be admitted.
  auto q3 = client->Query(MakeQuery("x", "count:500", 3));
  ASSERT_TRUE(q3.ok()) << q3.status().ToString();
  EXPECT_EQ(q3.value().code, StatusCode::kOutOfRange) << q3.value().message;

  supervisor.StopAll();
}

/// Minimal scriptable shard impostor: a raw TCP listener that answers the
/// router's health probes like a real shard, but can be told to answer the
/// next query with a BOGUS router tag — the stale-reply poisoning case the
/// router must treat as link death, not deliver to some other client — or
/// to hold the next query unanswered and then close the link.
class FakeShard {
 public:
  FakeShard() {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(listen_fd_, 0);
    int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    EXPECT_EQ(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    EXPECT_EQ(::listen(listen_fd_, 8), 0);
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    EXPECT_EQ(::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                            &len),
              0);
    port_ = ntohs(bound.sin_port);
    serve_ = std::thread([this] { Serve(); });
  }
  ~FakeShard() {
    stop_.store(true, std::memory_order_release);
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    if (serve_.joinable()) serve_.join();
  }

  uint16_t port() const { return port_; }

  /// Answer the next query with a wrong tag (one-shot).
  std::atomic<bool> poison_next_query{true};
  std::atomic<int> honest_answers{0};
  /// Hold the next query unanswered (one-shot): `holding` turns true when
  /// it arrives, and the link closes once `drop_held_link` is set.
  std::atomic<bool> hold_next_query{false};
  std::atomic<bool> holding{false};
  std::atomic<bool> drop_held_link{false};
  std::atomic<int> queries_seen{0};

 private:
  void Serve() {
    while (!stop_.load(std::memory_order_acquire)) {
      int conn = ::accept(listen_fd_, nullptr, nullptr);
      if (conn < 0) {
        if (stop_.load(std::memory_order_acquire)) return;
        continue;
      }
      HandleConn(conn);
      ::close(conn);
    }
  }

  static void SendAll(int fd, const std::string& bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                         MSG_NOSIGNAL);
      if (n <= 0) return;
      sent += static_cast<size_t>(n);
    }
  }

  void HandleConn(int conn) {
    net::FrameAssembler assembler;
    char buf[64 * 1024];
    for (;;) {
      ssize_t n = ::recv(conn, buf, sizeof(buf), 0);
      if (n <= 0) return;
      assembler.Feed(std::string_view(buf, static_cast<size_t>(n)));
      for (;;) {
        net::Frame frame;
        Status error = Status::Ok();
        auto outcome = assembler.Next(&frame, &error);
        if (outcome == net::FrameAssembler::Outcome::kError) return;
        if (outcome == net::FrameAssembler::Outcome::kNeedMore) break;
        if (frame.type == net::FrameType::kStatsRequest) {
          SendAll(conn, net::EncodeStatsResponseFrame("fake shard"));
        } else if (frame.type == net::FrameType::kQueryRequest) {
          net::WireQuery query;
          if (!net::DecodeQueryPayload(frame.payload, &query).ok()) return;
          queries_seen.fetch_add(1, std::memory_order_relaxed);
          if (hold_next_query.exchange(false)) {
            holding.store(true, std::memory_order_release);
            while (!drop_held_link.load(std::memory_order_acquire) &&
                   !stop_.load(std::memory_order_acquire)) {
              std::this_thread::sleep_for(std::chrono::milliseconds(1));
            }
            return;  // Serve closes the link
          }
          net::WireResult result;
          if (poison_next_query.exchange(false)) {
            result.client_tag = query.client_tag + 0x1000;
          } else {
            result.client_tag = query.client_tag;
            honest_answers.fetch_add(1, std::memory_order_relaxed);
          }
          SendAll(conn, net::EncodeResultFrame(result));
        }
      }
    }
  }

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::thread serve_;
};

TEST_F(ClusterChaosTest, StaleShardReplyPoisonsLinkAndKeyedQueryRetries) {
  // A shard answering with a tag nothing is waiting for means the link
  // stream is desynchronized: the router must kill the link (never deliver
  // the stale bytes to some client), redial, and — because the in-flight
  // query carried an idempotency key — re-send it after the probe passes.
  FakeShard fake;
  RouterConfig cfg;
  cfg.backoff_initial_ms = 5.0;
  cfg.backoff_max_ms = 50.0;
  Router router({{"127.0.0.1", fake.port()}}, cfg);
  ASSERT_TRUE(router.Start().ok());
  ASSERT_TRUE(WaitFor([&] { return router.ShardHealthy(0); }));

  std::unique_ptr<net::Client> client = DialShard(router.port());
  ASSERT_NE(client, nullptr);
  // net::Client stamps the idempotency key automatically — the retry
  // machinery needs nothing from the caller.
  auto result = client->Query(MakeQuery("x", "count:100", 1));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.value().ok()) << result.value().message;
  EXPECT_GE(fake.honest_answers.load(), 1);
  const Router::Stats stats = router.stats();
  EXPECT_GE(stats.shard_link_failures, 1u);
  EXPECT_GE(stats.retried, 1u);
  router.Stop();
}

/// The counter printed as "  <name>  <value>" in a /stats text, or -1.
int64_t StatsCounter(const std::string& text, const std::string& name) {
  const size_t at = text.find("  " + name + " ");
  if (at == std::string::npos) return -1;
  return std::stoll(text.substr(at + name.size() + 3));
}

TEST_F(ClusterChaosTest, ClientGoneBeforeItsShardDiesIsNeitherParkedNorResent) {
  // A keyed query is on its shard, its client leaves, and only then does
  // the link die. Parking the route would re-send it after recovery and
  // spend budget on a release nobody receives.
  FakeShard fake;
  fake.poison_next_query = false;
  fake.hold_next_query = true;
  RouterConfig cfg;
  cfg.health_probe_interval_ms = 0;  // the held link answers no probes
  // Once failed, the link stays down for the rest of the test, so a
  // parked route would stay in view instead of being re-sent.
  cfg.backoff_initial_ms = 60000.0;
  cfg.backoff_max_ms = 60000.0;
  Router router({{"127.0.0.1", fake.port()}}, cfg);
  ASSERT_TRUE(router.Start().ok());
  ASSERT_TRUE(WaitFor([&] { return router.ShardHealthy(0); }));

  std::unique_ptr<net::Client> leaving = DialShard(router.port());
  ASSERT_NE(leaving, nullptr);
  ASSERT_TRUE(leaving->Send(MakeQuery("x", "count:100", 1)).ok());
  ASSERT_TRUE(WaitFor([&] { return fake.holding.load(); }));
  leaving.reset();

  // The router has seen the close once the observer is its only client.
  std::unique_ptr<net::Client> observer = DialShard(router.port());
  ASSERT_NE(observer, nullptr);
  ASSERT_TRUE(WaitFor([&] {
    auto stats = observer->Stats();
    return stats.ok() && StatsCounter(stats.value(), "open_connections") == 1;
  }));

  fake.drop_held_link.store(true, std::memory_order_release);
  ASSERT_TRUE(WaitFor([&] { return router.stats().shard_link_failures >= 1; }));
  // The loop answers this only after it has finished failing the link.
  auto stats = observer->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(StatsCounter(stats.value(), "retry_parked"), 0) << stats.value();
  EXPECT_EQ(StatsCounter(stats.value(), "retried"), 0) << stats.value();
  EXPECT_EQ(StatsCounter(stats.value(), "failed_over_inflight"), 0)
      << stats.value();
  EXPECT_EQ(fake.queries_seen.load(), 1);
  router.Stop();
}

TEST_F(ClusterChaosTest, RouterDeathLeavesShardsServingAndReplayable) {
  // SIGKILL the ROUTER while a keyed query is executing on the shard. The
  // shard must shrug off the dead connection (drain cleanly, keep
  // serving), finish the release exactly once, and answer a direct
  // re-submission of the same key with the journaled response.
  auto shard_port = PickFreePort();
  auto router_port = PickFreePort();
  ASSERT_TRUE(shard_port.ok() && router_port.ok());

  ShardSupervisor::Options opts;
  opts.auto_restart = false;
  ShardSupervisor supervisor(opts);
  auto shard = supervisor.Launch(
      ShardSpec(shard_port.value(), dir_ + "/j", 1.0));
  ASSERT_TRUE(shard.ok()) << shard.status().ToString();

  ShardProcessSpec router_spec;
  router_spec.binary = UPA_ROUTER_BIN;
  router_spec.args = {std::to_string(router_port.value()),
                      "127.0.0.1:" + std::to_string(shard_port.value())};
  auto router = supervisor.Launch(std::move(router_spec));
  ASSERT_TRUE(router.ok()) << router.status().ToString();

  // The router only forwards once its health probe passed; retry until a
  // cheap probe query goes through end to end.
  std::unique_ptr<net::Client> client;
  ASSERT_TRUE(WaitFor([&] {
    client = DialShard(router_port.value());
    if (client == nullptr) return false;
    auto probe = client->Query(MakeQuery("warm", "count:100", 1), 2000);
    return probe.ok() && probe.value().ok();
  }));

  // A slow keyed query: ~1s of shard-side latency leaves a wide window to
  // kill the router mid-forward.
  net::WireQuery slow = MakeQuery("x", "lat:100:1000000", 2);
  slow.client_nonce = 0xfeedface;
  slow.client_seq = 42;
  auto tag = client->Send(slow);
  ASSERT_TRUE(tag.ok()) << tag.status().ToString();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));  // mid-run
  ASSERT_TRUE(supervisor.Kill(router.value(), SIGKILL).ok());
  // The client loses its transport — the query outcome is unknown to it.
  auto lost = client->Await(tag.value(), 5000);
  EXPECT_FALSE(lost.ok() && lost.value().ok());

  // The shard survives its peer's death: dial it DIRECTLY and re-submit
  // the same key. Depending on timing the shard either finished the
  // release after the router died (retry replays it) or cancelled and
  // REFUNDED the orphaned query when the router's connection dropped
  // (retry runs fresh, as the first and only execution). Both are
  // exactly-once; the journal check below pins it.
  std::unique_ptr<net::Client> direct = DialShard(shard_port.value());
  ASSERT_NE(direct, nullptr);
  auto retried = direct->Query(slow, /*timeout_ms=*/30000);
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  ASSERT_TRUE(retried.value().ok()) << retried.value().message;

  // Now that the key HAS completed, one more re-submission must be a
  // dedup replay — byte-identical payload, no execution, no charge.
  auto replay = direct->Query(slow, /*timeout_ms=*/30000);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  ASSERT_TRUE(replay.value().ok()) << replay.value().message;
  EXPECT_EQ(replay.value().response.released,
            retried.value().response.released);

  // Exactly one kRelease for the key in the append-only journal.
  const std::string journal_path =
      dir_ + "/j/" + service::Journal::FileStem("x") + ".journal";
  auto records = service::Journal::ReadAll(journal_path);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  int releases = 0;
  for (const service::JournalRecord& rec : records.value()) {
    if (rec.type == service::JournalRecord::Type::kRelease &&
        rec.nonce == slow.client_nonce && rec.key_seq == slow.client_seq) {
      ++releases;
    }
  }
  EXPECT_EQ(releases, 1);

  // The shard's own stats agree at least the last re-submission replayed
  // (two replays if the original beat the disconnect-cancel to release).
  auto stats = direct->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_TRUE(stats.value().find("dedup_replays=1") != std::string::npos ||
              stats.value().find("dedup_replays=2") != std::string::npos)
      << stats.value();

  supervisor.StopAll();
}

TEST_F(ClusterChaosTest, SupervisorAutoRestartsKilledShard) {
  auto port = PickFreePort();
  ASSERT_TRUE(port.ok());
  ShardSupervisor::Options opts;
  opts.backoff_initial_ms = 10.0;
  ShardSupervisor supervisor(opts);  // auto_restart on
  auto slot = supervisor.Launch(ShardSpec(port.value(), dir_ + "/j", 1e9));
  ASSERT_TRUE(slot.ok());

  std::unique_ptr<net::Client> client = DialShard(port.value());
  ASSERT_NE(client, nullptr);
  auto before = client->Query(MakeQuery("x", "count:300", 1));
  ASSERT_TRUE(before.ok() && before.value().ok());

  const pid_t first_pid = supervisor.PidOf(slot.value());
  ASSERT_TRUE(supervisor.Kill(slot.value(), SIGKILL).ok());
  ASSERT_TRUE(WaitFor([&] {
    const pid_t pid = supervisor.PidOf(slot.value());
    return pid > 0 && pid != first_pid;
  }));
  EXPECT_GE(supervisor.Restarts(slot.value()), 1u);

  client = DialShard(port.value());
  ASSERT_NE(client, nullptr);
  auto after = client->Query(MakeQuery("x", "count:300", 2));
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_TRUE(after.value().ok()) << after.value().status().ToString();
  supervisor.StopAll();
}

}  // namespace
}  // namespace upa::cluster
