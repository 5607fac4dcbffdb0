// Cluster router: one process speaking the UPA wire protocol to clients,
// fanning queries out over N shard servers by consistent-hashing the
// dataset id (ring.h). Clients see a single server; privacy enforcement
// stays entirely shard-local — each shard owns the budget, enforcer
// registry, epoch and journal for its dataset subset, so the router holds
// no privacy state and can be restarted freely.
//
// Mechanics:
//   - the router's client side IS a net::Server (server.h): its listen
//     socket, accept cap, framing, per-connection pipeline cap, "net/*"
//     fault sites, counters and drain. The router is its Handler: it takes
//     each decoded query and answers it, on the server's loop thread.
//   - the shard links live on that same loop, so one thread owns every fd
//     and there are no locks on the data path; the only cross-thread
//     values are the stats atomics.
//   - a query is re-tagged with a router-unique tag (two clients may use
//     the same client_tag) and re-encoded onto the owning shard's link;
//     responses are re-tagged back. Doubles travel as raw IEEE bits
//     through the decode/encode round trip, so routing is bit-invisible.
//   - per-shard backpressure: a shard at its in-flight cap (or with a
//     backed-up write buffer) rejects further queries with
//     kResourceExhausted, the same code the server uses for pipeline
//     overflow — clients already handle it.
//   - failover: a dead shard link parks its keyed in-flight queries (see
//     RouterConfig::retry_limit) and fails the keyless rest with
//     kUnavailable, then redials with jittered bounded exponential
//     backoff — a circuit breaker: kBackoff is open, kConnecting/kProbing
//     half-open, kHealthy closed. A reconnected shard takes traffic only
//     after answering a health probe (a stats request) — by then the
//     shard process has replayed its journal, so the recovered
//     registry/ledger/epoch/dedup state is already bit-identical to the
//     pre-crash acknowledged state — at which point parked queries are
//     re-sent with their original idempotency keys: a release the shard
//     journaled before dying replays byte-identically without
//     re-charging, anything earlier re-runs against the refunded budget.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/ring.h"
#include "common/backoff.h"
#include "net/conn.h"
#include "net/server.h"
#include "net/wire.h"

namespace upa::cluster {

struct ShardAddress {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
};

struct RouterConfig {
  /// Where the router's net::Server listens for clients. 0 = ephemeral
  /// (read back via port()).
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  /// Redial backoff range for a lost shard link (see JitteredBackoff).
  double backoff_initial_ms = 20.0;
  double backoff_max_ms = 2000.0;
  /// Health probes: a reconnected shard must answer one before taking
  /// traffic; healthy-but-idle shards are probed every interval. 0
  /// disables idle probing (the connect-time probe always runs).
  double health_probe_interval_ms = 500.0;
  /// Budget-safe failover retry: an in-flight query carrying an
  /// idempotency key (client_nonce != 0) is PARKED when its shard link
  /// dies and re-sent — same key, so a completed release replays instead
  /// of re-running — once the shard passes a health probe (the recovery
  /// barrier: by then journal replay has finished). Each query survives at
  /// most retry_limit failovers; a parked query whose shard has not
  /// recovered within retry_timeout_ms fails back to the client with
  /// kUnavailable. retry_limit = 0 disables parking entirely (every
  /// failover fails fast, the pre-retry behavior). Keyless queries always
  /// fail fast — without a key a re-send could double-spend budget.
  size_t retry_limit = 2;
  double retry_timeout_ms = 3000.0;
  /// Seeds the redial jitter, so that multiple routers (or many links
  /// after a correlated failure) do not redial a recovering shard in
  /// lockstep.
  uint64_t backoff_jitter_seed = 0x7570612d6a697474ULL;
  size_t ring_vnodes = 64;
};

class Router {
 public:
  /// Per-shard cap on routed-but-unanswered queries (or a shard link with
  /// more than net::kWriteBufferHighBytes unsent); overflow is rejected
  /// with kResourceExhausted (backpressure, not queueing). Every query for
  /// a shard rides one link, so the cap is what a default shard accepts
  /// per connection.
  static constexpr size_t kMaxInflightPerShard = net::kDefaultMaxPipelined;

  Router(std::vector<ShardAddress> shards, RouterConfig config = {});
  ~Router();  // Stop()

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Starts the client-facing server and dials every shard.
  Status Start();
  /// Drains the server (routed and parked queries come back first), then
  /// closes the shard links. Idempotent.
  void Stop();

  uint16_t port() const { return server_.port(); }
  const ConsistentHashRing& ring() const { return ring_; }
  /// The client-facing door: its counters and its "== net ==" block.
  const net::Server& server() const { return server_; }

  /// True once the shard's link passed its health probe (and the link is
  /// still up). Thread-safe.
  bool ShardHealthy(size_t shard) const;

  struct Stats {
    uint64_t routed = 0;
    uint64_t replies = 0;
    uint64_t rejected_unavailable = 0;
    uint64_t rejected_backpressure = 0;
    /// Shard links that failed: a dropped link, a failed or timed-out
    /// dial, a failed health probe. One killed shard can count more than
    /// once (its link drops, then a redial fails while it restarts).
    uint64_t shard_link_failures = 0;
    uint64_t failed_over_inflight = 0;
    /// Keyed queries re-sent to a recovered shard.
    uint64_t retried = 0;
    /// Parked queries whose shard did not recover within the retry window
    /// (these also count toward failed_over_inflight — the retry machinery
    /// only defers the failure, it never hides one).
    uint64_t retry_exhausted = 0;
    /// Queries currently parked awaiting a shard recovery.
    uint64_t retry_parked = 0;
  };
  Stats stats() const;
  /// The "== upa router ==" block: routing counters and shard link states.
  /// A stats request gets it ahead of the server's "== net ==" block; the
  /// router answers from its own state rather than fanning out to the
  /// shards, so the dump stays cheap and available while shards are down.
  std::string StatsText() const;

  /// Optional per-shard respawn-count source (e.g. the process
  /// supervisor's Restarts()); shown in StatsText so an operator can see
  /// crash-loop churn next to link health. Must be thread-safe; set before
  /// Start().
  void SetRespawnCounter(std::function<uint64_t(size_t)> counter) {
    respawn_counter_ = std::move(counter);
  }

 private:
  struct Route {
    /// The client's side of the query, answered through the server.
    net::PendingQuery pending;
    uint64_t client_tag = 0;
    /// Original query (still carrying the client's own tag), kept only
    /// for keyed routes so a failover can re-send it verbatim.
    net::WireQuery query;
    /// Failovers this query may still survive; 0 fails fast.
    size_t retries_left = 0;
    /// While parked: when to give up waiting for the shard to recover.
    int64_t park_deadline_ns = 0;
  };

  struct ShardLink {
    enum class State { kBackoff, kConnecting, kProbing, kHealthy };
    size_t index = 0;
    ShardAddress addr;
    State state = State::kBackoff;
    /// The dialled connection; null while the link is down (kBackoff).
    std::unique_ptr<net::FramedConn> conn;
    double backoff_ms = 0.0;
    int64_t next_dial_ns = 0;   // kBackoff: earliest redial
    int64_t dial_deadline_ns = 0;
    int64_t probe_deadline_ns = 0;
    int64_t last_probe_ns = 0;
    bool probe_outstanding = false;
    std::map<uint64_t, Route> inflight;  // router tag → origin
    /// Keyed routes waiting out a failover; re-sent when the link passes
    /// its next health probe, expired by OnTick past their deadline.
    std::vector<Route> parked;
  };

  // Loop-thread only.
  /// The server's query handler.
  void RouteQuery(net::PendingQuery pending, net::WireQuery query);
  /// Answers `route`'s client with `result` under its own tag. False when
  /// the client has left: the answer is dropped (a departed client is not
  /// chased to its shard, which has released and charged regardless).
  bool Reply(const Route& route, net::WireResult result);

  void StartDial(ShardLink& link);
  void HandleShardEvent(size_t shard, bool readable, bool writable,
                        bool error);
  void ProcessShardFrames(ShardLink& link);
  void QueueShardWrite(ShardLink& link, std::string bytes);
  void FlushShard(ShardLink& link);
  void SendProbe(ShardLink& link);
  /// Tears the link down: parks keyed in-flight routes for a post-recovery
  /// re-send (retry budget permitting), fails the rest with kUnavailable,
  /// and schedules a jittered backoff redial.
  void FailShard(ShardLink& link, const Status& reason);
  /// Re-sends every parked route after `link` passed a health probe.
  void FlushParked(ShardLink& link);
  void ResendRoute(Route route);
  /// Fails a parked route back to its client (recovery window elapsed).
  void ExpireParked(Route& route, const ShardLink& link);
  void ScheduleRedial(ShardLink& link, int64_t now);
  void OnTick();

  std::vector<ShardAddress> shard_addrs_;
  RouterConfig config_;
  JitteredBackoff backoff_;  // loop thread only
  ConsistentHashRing ring_;
  net::Server server_;

  uint64_t next_router_tag_ = 1;
  std::vector<ShardLink> links_;  // destroyed before the server's loop

  std::unique_ptr<std::atomic<bool>[]> healthy_;
  std::atomic<uint64_t> routed_{0};
  std::atomic<uint64_t> replies_{0};
  std::atomic<uint64_t> rejected_unavailable_{0};
  std::atomic<uint64_t> rejected_backpressure_{0};
  std::atomic<uint64_t> shard_link_failures_{0};
  std::atomic<uint64_t> failed_over_inflight_{0};
  std::atomic<uint64_t> retried_{0};
  std::atomic<uint64_t> retry_exhausted_{0};
  std::atomic<uint64_t> retry_parked_{0};
  std::function<uint64_t(size_t)> respawn_counter_;
};

}  // namespace upa::cluster
