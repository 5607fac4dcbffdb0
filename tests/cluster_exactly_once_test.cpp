// End-to-end exactly-once orchestrator: a 3-shard cluster of real
// fork/exec'd upa_shard processes, each planted with a SIGKILL failpoint at
// a DIFFERENT point of the release pipeline, under a mixed-tenant keyed
// workload driven through the router. Every query that reaches a shard is
// killed on every second pass (kill:every(2)); the supervisor respawns the
// corpse over its journal, the router's health probe gates traffic until
// replay finished, and the parked query is re-sent with its original
// idempotency key.
//
// The three failpoint sites cover every crash window of the
// charge→run→commit protocol, whose only durable record is the kRelease:
//
//   service/pre_run                       charged in memory, nothing durable
//   service/post_run_pre_release_append   run done, release NOT journaled
//   service/post_release_pre_ack          release durable, ack never sent
//
// Invariants asserted per seed, across all shards and datasets:
//   1. Exactly one kRelease per idempotency key in the append-only
//      journals — the crash/retry machinery never double-releases.
//   2. Budget conservation: recovery charges exactly epsilon × releases for
//      every dataset and refunds nothing (no leaked or double charge).
//   3. Byte-identical replay: re-submitting every completed key returns
//      the journaled response bit-for-bit, and appends no new release.
#include <gtest/gtest.h>

#include <signal.h>
#include <stdlib.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/router.h"
#include "cluster/shard_process.h"
#include "net/client.h"
#include "service/journal.h"

#ifndef UPA_SHARD_BIN
#error "UPA_SHARD_BIN must point at the upa_shard binary"
#endif

namespace upa::cluster {
namespace {

namespace fs = std::filesystem;

constexpr double kEpsilon = 0.1;
constexpr size_t kShards = 3;

const char* kKillSites[kShards] = {
    "service/pre_run",
    "service/post_run_pre_release_append",
    "service/post_release_pre_ack",
};

bool WaitFor(const std::function<bool()>& pred, int timeout_ms = 30000) {
  for (int i = 0; i < timeout_ms; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

/// WireResult bytes with the connection-scoped fields zeroed: what "the
/// same response" means across two different client connections.
std::string CanonicalResultBytes(net::WireResult result) {
  result.client_tag = 0;
  return net::EncodeResultFrame(result);
}

class ClusterExactlyOnceTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    char tmp[] = "/tmp/upa-exactly-once-XXXXXX";
    ASSERT_NE(::mkdtemp(tmp), nullptr);
    dir_ = tmp;
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  std::string dir_;
};

TEST_P(ClusterExactlyOnceTest, ChaosRunConservesAndNeverDoubleReleases) {
  const uint64_t seed = GetParam();

  // --- Launch the shards, each killing itself at a different site. ---
  std::vector<uint16_t> ports;
  for (size_t i = 0; i < kShards; ++i) {
    auto port = PickFreePort();
    ASSERT_TRUE(port.ok()) << port.status().ToString();
    ports.push_back(port.value());
  }
  ShardSupervisor::Options sup_opts;
  sup_opts.backoff_initial_ms = 10.0;
  sup_opts.backoff_max_ms = 200.0;
  sup_opts.backoff_jitter_seed = seed;
  ShardSupervisor supervisor(sup_opts);  // auto_restart on
  for (size_t i = 0; i < kShards; ++i) {
    ShardProcessSpec spec;
    spec.binary = UPA_SHARD_BIN;
    spec.args = {"--port",        std::to_string(ports[i]),
                 "--journal-dir", dir_ + "/s" + std::to_string(i),
                 "--threads",     "1",
                 "--sample-n",    "16",
                 "--budget",      "10"};
    spec.env = {std::string("UPA_FAILPOINTS=") + kKillSites[i] +
                "=kill:every(2)"};
    auto slot = supervisor.Launch(std::move(spec));
    ASSERT_TRUE(slot.ok()) << slot.status().ToString();
    ASSERT_EQ(slot.value(), i);
  }

  RouterConfig router_cfg;
  router_cfg.backoff_initial_ms = 5.0;
  router_cfg.backoff_max_ms = 100.0;
  router_cfg.backoff_jitter_seed = seed;
  router_cfg.retry_timeout_ms = 20000.0;  // cover slow ASan respawns
  router_cfg.retry_limit = 4;
  std::vector<ShardAddress> addrs;
  for (uint16_t port : ports) addrs.push_back({"127.0.0.1", port});
  Router router(addrs, router_cfg);
  router.SetRespawnCounter(
      [&supervisor](size_t shard) { return supervisor.Restarts(shard); });
  ASSERT_TRUE(router.Start().ok());
  for (size_t i = 0; i < kShards; ++i) {
    ASSERT_TRUE(WaitFor([&] { return router.ShardHealthy(i); }))
        << "shard " << i << " never turned healthy";
  }

  // --- Pick two datasets per shard (ring-resolved), 2 queries each. ---
  std::vector<std::vector<std::string>> shard_datasets(kShards);
  for (int candidate = 0; true; ++candidate) {
    ASSERT_LT(candidate, 4096) << "ring never covered all shards";
    const std::string name = "ds-" + std::to_string(candidate);
    std::vector<std::string>& bucket =
        shard_datasets[router.ring().ShardFor(name)];
    if (bucket.size() < 2) bucket.push_back(name);
    bool done = true;
    for (const auto& b : shard_datasets) done = done && b.size() == 2;
    if (done) break;
  }
  struct Planned {
    net::WireQuery query;
    std::string first_response;  // canonical bytes of the first OK answer
  };
  std::vector<Planned> plan;
  const uint64_t nonce = 0x5eed0000u + seed;  // one keyspace for the run
  for (int round = 0; round < 2; ++round) {
    for (size_t shard = 0; shard < kShards; ++shard) {
      for (const std::string& dataset : shard_datasets[shard]) {
        Planned p;
        p.query.tenant = plan.size() % 2 == 0 ? "tenant-a" : "tenant-b";
        p.query.dataset_id = dataset;
        p.query.epsilon = kEpsilon;
        p.query.seed = seed * 1000 + plan.size();
        p.query.sql = "count:400";
        p.query.client_nonce = nonce;
        p.query.client_seq = plan.size() + 1;
        plan.push_back(std::move(p));
      }
    }
  }

  // --- Drive the workload; the client retry loop mirrors the documented
  // idempotent-retry pattern (same key, fresh connection on transport
  // failure, honour retry_after hints). ---
  auto connected = net::Client::Connect("127.0.0.1", router.port());
  ASSERT_TRUE(connected.ok());
  std::unique_ptr<net::Client> client = std::move(connected).value();
  for (Planned& p : plan) {
    net::WireResult result;
    bool answered = false;
    for (int attempt = 0; attempt < 50 && !answered; ++attempt) {
      if (client == nullptr) {
        auto redial = net::Client::Connect("127.0.0.1", router.port());
        if (!redial.ok()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
          continue;
        }
        client = std::move(redial).value();
      }
      auto attempt_result = client->Query(p.query, /*timeout_ms=*/60000);
      if (!attempt_result.ok()) {
        client.reset();  // transport fault poisons the connection
        continue;
      }
      result = std::move(attempt_result).value();
      if (result.ok()) {
        answered = true;
      } else {
        ASSERT_TRUE(result.code == StatusCode::kUnavailable ||
                    result.code == StatusCode::kResourceExhausted)
            << "seq " << p.query.client_seq << ": " << result.message;
        std::this_thread::sleep_for(std::chrono::milliseconds(
            std::max<int64_t>(result.retry_after_ms, 1)));
      }
    }
    ASSERT_TRUE(answered) << "seq " << p.query.client_seq
                          << " never completed";
    p.first_response = CanonicalResultBytes(std::move(result));
  }

  const Router::Stats mid_stats = router.stats();
  EXPECT_GE(mid_stats.retried, 1u)
      << "the kill sites should have forced at least one parked retry";

  // --- Replay every key on a fresh connection: byte-identical responses,
  // and (checked against the journals below) no new releases. ---
  auto replay_conn = net::Client::Connect("127.0.0.1", router.port());
  ASSERT_TRUE(replay_conn.ok());
  std::unique_ptr<net::Client> replayer = std::move(replay_conn).value();
  for (const Planned& p : plan) {
    net::WireResult replayed;
    bool answered = false;
    for (int attempt = 0; attempt < 50 && !answered; ++attempt) {
      if (replayer == nullptr) {
        auto redial = net::Client::Connect("127.0.0.1", router.port());
        if (!redial.ok()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
          continue;
        }
        replayer = std::move(redial).value();
      }
      auto attempt_result = replayer->Query(p.query, /*timeout_ms=*/60000);
      if (!attempt_result.ok()) {
        replayer.reset();
        continue;
      }
      replayed = std::move(attempt_result).value();
      if (replayed.ok()) {
        answered = true;
      } else {
        ASSERT_TRUE(replayed.code == StatusCode::kUnavailable ||
                    replayed.code == StatusCode::kResourceExhausted)
            << "replay seq " << p.query.client_seq << ": "
            << replayed.message;
        std::this_thread::sleep_for(std::chrono::milliseconds(
            std::max<int64_t>(replayed.retry_after_ms, 1)));
      }
    }
    ASSERT_TRUE(answered) << "replay of seq " << p.query.client_seq
                          << " never completed";
    EXPECT_EQ(CanonicalResultBytes(std::move(replayed)), p.first_response)
        << "replay of seq " << p.query.client_seq
        << " is not byte-identical to the first response";
  }

  router.Stop();
  supervisor.StopAll();

  // --- Journal forensics: the journals are append-only, so they hold the
  // complete release history across every crash and respawn. ---
  std::map<std::pair<uint64_t, uint64_t>, int> releases_per_key;
  for (size_t shard = 0; shard < kShards; ++shard) {
    const std::string shard_dir = dir_ + "/s" + std::to_string(shard);
    for (const auto& entry : fs::directory_iterator(shard_dir)) {
      if (entry.path().extension() != ".journal") continue;
      auto records = service::Journal::ReadAll(entry.path().string());
      ASSERT_TRUE(records.ok()) << records.status().ToString();
      std::string dataset;
      int dataset_releases = 0;
      for (const service::JournalRecord& rec : records.value()) {
        if (rec.type == service::JournalRecord::Type::kOpen) {
          dataset = rec.dataset_id;
        }
        if (rec.type != service::JournalRecord::Type::kRelease) continue;
        ++dataset_releases;
        if (rec.nonce != 0) {
          ++releases_per_key[{rec.nonce, rec.key_seq}];
        }
      }
      // Conservation: run the real recovery over the full journal and
      // check the ledger it would hand a restarted shard.
      auto recovered = service::RecoverAll(shard_dir);
      ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
      for (const service::DatasetDurableState& state : recovered.value()) {
        if (state.dataset_id != dataset) continue;
        EXPECT_NEAR(state.charged_total, kEpsilon * dataset_releases, 1e-9)
            << "shard " << shard << " dataset " << dataset
            << ": budget does not match its releases (leaked or double "
               "charge)";
      }
    }
  }
  for (const auto& [key, count] : releases_per_key) {
    EXPECT_EQ(count, 1) << "key (0x" << std::hex << key.first << std::dec
                        << ", " << key.second << ") was released " << count
                        << " times";
  }
  // Every acknowledged query has its release journaled exactly once.
  for (const Planned& p : plan) {
    EXPECT_EQ(releases_per_key.count(
                  {p.query.client_nonce, p.query.client_seq}),
              1u)
        << "seq " << p.query.client_seq << " was acknowledged but has no "
        << "journaled release";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClusterExactlyOnceTest,
                         ::testing::Values(1u, 2u, 3u));

}  // namespace
}  // namespace upa::cluster
