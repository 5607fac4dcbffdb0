// UpaService: a thread-safe, multi-tenant front door for the UPA release
// path (ROADMAP north star: one deployed service answering many analysts'
// queries over many private datasets concurrently).
//
// What the service owns, per dataset:
//   - the RANGE ENFORCER registry (Algorithm 2 state shared by every query
//     over that dataset, whoever submits it),
//   - the privacy budget (one PrivacyAccountant across datasets: a query is
//     charged in memory before it runs and refunded in memory if it fails
//     before releasing anything),
//   - a data epoch plus an LRU cache of inferred sensitivities/output
//     ranges keyed by query fingerprint × epoch: a repeated query shape on
//     unchanged data skips phase 3b's exclusion scans and the normal fit —
//     the expensive half of a run — and releases bit-identically to the
//     full run (see core::SensitivityHint),
//   - optionally (ServiceConfig::journal_dir) a durable journal of every
//     release (one record with its outputs and ε) and epoch bump, replayed
//     on construction so a restarted service resumes with a bit-identical
//     registry and a ledger of Σ released ε (see journal.h for the
//     crash-consistency protocol). A journal dir that does not recover
//     leaves the service inert (recovery_status()).
//
// Admission and ordering:
//   - at most `max_in_flight` queries execute at once (global), and at
//     most one per tenant — so each tenant's submissions execute in FIFO
//     order on the engine ThreadPool. With one writer per dataset this
//     makes concurrent operation bit-identical to a sequential replay of
//     each tenant's sequence (asserted by the stress suite).
//   - per-tenant backlogs are bounded; overflow is rejected with
//     RESOURCE_EXHAUSTED rather than queued without bound.
//   - releases on one dataset serialize on a per-dataset lock (two tenants
//     sharing a dataset stay sound; their interleaving is then admission
//     order, not bit-reproducible — that is inherent, the registry is
//     order-dependent).
//
// Deadlines and cancellation: a request may carry `deadline_ms` and/or a
// caller-held CancelToken. Cancellation is cooperative — the token is
// checked between runner phases, at ParallelFor morsel boundaries and
// between plan nodes — and interacts with the budget as "refund iff
// nothing was released": the runner's last check sits immediately before
// the enforcer Register, so a cancelled run can never have released and
// its charge is always returned. A watchdog thread prunes queued requests
// whose deadline expired before dispatch.
//
// Observability: per-phase latency histograms (service/queue,
// service/total, upa/sample|map|reduce|enforce) and named counters
// (admissions, rejections, cache hits/misses, refunds, cancellations,
// deadline misses, journal errors, suspected attacks, releases at the
// enforcer's removal cap) recorded in the ExecContext's engine::Metrics,
// plus a "/stats"-style text dump (StatsReport) used by
// examples/sql_console.cpp.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/cancel.h"
#include "common/timer.h"
#include "dp/accountant.h"
#include "engine/context.h"
#include "service/journal.h"
#include "upa/runner.h"

namespace upa::service {

struct ServiceConfig {
  /// Per-release pipeline defaults; `epsilon` is overridden per request.
  core::UpaConfig upa;
  /// Privacy budget per dataset (sequential composition cap).
  double budget_per_dataset = 4.0;
  /// Global cap on concurrently executing queries.
  size_t max_in_flight = 4;
  /// Bound on each tenant's backlog; overflow is rejected.
  size_t max_queue_per_tenant = 256;
  /// When non-empty, every budget/registry mutation is journaled here and
  /// replayed on construction (crash-safe durability; see journal.h).
  std::string journal_dir;
  /// Sync every journal append (fdatasync), and the directory entry of a
  /// fresh journal, to disk before acknowledging. Default on — otherwise
  /// "durable pre-acknowledgement" only covers process death, not power
  /// loss. Only tests turn it off, where process death is all they model.
  bool journal_fsync = true;
  /// Identity of this service instance inside a cluster (printed by
  /// StatsReport so an operator can tell shard dumps apart). Empty for
  /// standalone servers.
  std::string shard_name;
};

/// Rejects nonsensical configurations (zero admission/queue limits, a
/// negative or non-finite budget) with kInvalidArgument.
/// UpaService runs it at construction and fails every submission with the
/// verdict rather than accepting a config that could never serve a query.
Status ValidateServiceConfig(const ServiceConfig& config);

struct QueryRequest {
  /// Queueing/fairness unit: one tenant's requests run one at a time, in
  /// submission order.
  std::string tenant;
  /// Privacy unit: scopes the enforcer registry, budget and epoch.
  std::string dataset_id;
  core::QueryInstance query;
  double epsilon = 0.1;
  /// Drives sampling/noise (same request + same registry state → same
  /// released bits). Callers choose it so replays are reproducible.
  uint64_t seed = 0;
  /// Query-shape fingerprint for the sensitivity cache (PlanFingerprint
  /// for relational plans); 0 → derived from the query name.
  uint64_t fingerprint = 0;
  /// Wall-clock deadline measured from Submit; 0 = none. An overdue query
  /// fails with DEADLINE_EXCEEDED — from the queue via the watchdog, or
  /// mid-run at the next cooperative check — and its charge is refunded.
  int64_t deadline_ms = 0;
  /// Optional caller-held cancellation handle: Cancel() aborts the query
  /// at the next cooperative check (CANCELLED, charge refunded) — or
  /// never, if the release already happened. Created internally when only
  /// deadline_ms is set.
  std::shared_ptr<CancelToken> cancel;
  /// Idempotency key (client_nonce != 0 activates it). A re-submission
  /// with the same (client_nonce, client_seq) on the same dataset replays
  /// the original journaled response — same bits, no budget charge —
  /// instead of running again. Reusing a key for a *different* request is
  /// rejected with kInvalidArgument (the key binds to a request hash).
  uint64_t client_nonce = 0;
  uint64_t client_seq = 0;
};

struct QueryResponse {
  double released = 0.0;
  double epsilon = 0.0;
  double local_sensitivity = 0.0;
  Interval out_range;
  bool attack_suspected = false;
  size_t records_removed = 0;
  bool degenerate_sensitivity = false;
  /// True when the sensitivity/range came from the per-dataset LRU cache
  /// (the run skipped the exclusion scans).
  bool sensitivity_cache_hit = false;
  uint64_t dataset_epoch = 0;
  /// Time spent queued before execution started.
  double queue_seconds = 0.0;
  core::PhaseSeconds seconds;
};

/// The one byte layout of a QueryResponse: released, epsilon,
/// local_sensitivity, out_range lo/hi; a u64 flag word (attack_suspected 1,
/// degenerate_sensitivity 2, sensitivity_cache_hit 4; unknown bits are
/// rejected); records_removed, dataset_epoch; queue_seconds and the five
/// phase timings. A kRelease record keeps it as the response blob a replay
/// returns, and the wire's result payload carries it, so both are
/// bit-identical to the first delivery.
void EncodeResponse(const QueryResponse& response, PayloadWriter* out);
Status DecodeResponse(PayloadReader* in, QueryResponse* out);

/// The response blob: exactly one EncodeResponse (kInternal if not).
std::string EncodeResponseBlob(const QueryResponse& response);
Status DecodeResponseBlob(std::string_view blob, QueryResponse* out);

/// The hash an idempotency key is bound to: a key re-submitted with a
/// different request (tenant/query/epsilon/seed/fingerprint) is rejected
/// instead of replayed.
uint64_t RequestKeyHash(const QueryRequest& request);

class UpaService {
 public:
  /// Capacity of each dataset's sensitivity LRU cache.
  static constexpr size_t kSensitivityCacheCapacity = 64;
  /// Per-dataset LRU window of completed idempotency keys. A re-submitted
  /// key inside the window replays the journaled response byte-identically
  /// without touching the accountant; eviction is journaled (kExpire) so
  /// the window is crash-consistent.
  static constexpr size_t kDedupWindow = 1024;

  explicit UpaService(engine::ExecContext* ctx, ServiceConfig config = {});
  /// Drains: blocks until every admitted request has completed.
  ~UpaService();

  UpaService(const UpaService&) = delete;
  UpaService& operator=(const UpaService&) = delete;

  /// Completion signature for SubmitAsync.
  using Callback = std::function<void(Result<QueryResponse>)>;

  /// Enqueue a request on its tenant's FIFO queue. `done` runs exactly
  /// once: on an engine pool thread when the query executed, or inline on
  /// the submitting thread for immediate rejections (backlog full,
  /// shutdown, dead-on-arrival). It must not block: callers that must not
  /// hold a thread per pending request (the network front door's event
  /// loop) use it directly.
  void SubmitAsync(QueryRequest request, Callback done);

  /// SubmitAsync with a callback that fulfils the returned future.
  std::future<Result<QueryResponse>> Submit(QueryRequest request);

  /// Submit + wait. Do not call from inside an engine pool task.
  Result<QueryResponse> Execute(QueryRequest request);

  /// Announce that `dataset_id`'s underlying data changed: bumps the
  /// epoch, which invalidates every cached sensitivity for the dataset.
  void BumpEpoch(const std::string& dataset_id);
  uint64_t Epoch(const std::string& dataset_id) const;

  /// Size of the dataset's sensitivity cache (tests/stats).
  size_t CachedSensitivities(const std::string& dataset_id) const;

  /// Live size of the dataset's idempotency dedup window (tests/stats).
  size_t DedupWindowSize(const std::string& dataset_id) const;

  dp::PrivacyAccountant& accountant() { return accountant_; }
  engine::ExecContext* ctx() { return ctx_; }
  const ServiceConfig& config() const { return config_; }

  /// Non-OK when journal recovery failed at construction. Recovery stops
  /// at the first bad file and restores no dataset, so the service is then
  /// inert: every submission resolves with this status, nothing is
  /// charged, run or journaled (BumpEpoch included), and StatsReport says
  /// why.
  const Status& recovery_status() const { return recovery_status_; }

  /// ValidateServiceConfig's verdict on the construction config. Non-OK
  /// means every submission is rejected with this status (the service is
  /// inert: no watchdog, no journal recovery).
  const Status& config_status() const { return config_status_; }

  /// Everything recovery must reproduce for one dataset, read from the
  /// live service. The chaos/crash-recovery suites compare this across a
  /// restart for bit-identical equality.
  struct DatasetDurableDebug {
    uint64_t epoch = 0;
    dp::BudgetCheckpoint budget;
    std::vector<std::vector<double>> registry;
  };
  DatasetDurableDebug DebugState(const std::string& dataset_id);

  /// "/stats"-style plain-text dump: admission state, per-tenant queue
  /// stats, per-dataset budget/registry/cache state, latency histograms.
  std::string StatsReport() const;

 private:
  struct Pending {
    QueryRequest request;
    /// Receives the outcome, exactly once.
    Callback done;
    Stopwatch queued;
    /// Cancellation handle: the caller's token, or service-created when
    /// only deadline_ms was set. Null when neither was requested.
    std::shared_ptr<CancelToken> token;
  };

  struct TenantState {
    // shared_ptr: the in-flight task keeps its Pending alive past service
    // destruction (and ThreadPool::Submit needs a copyable callable).
    std::deque<std::shared_ptr<Pending>> queue;
    bool running = false;
    uint64_t submitted = 0;
    uint64_t completed = 0;
    uint64_t rejected = 0;
    /// Pruned from the queue by the watchdog (deadline/cancel) before
    /// ever being dispatched.
    uint64_t cancelled = 0;
  };

  /// A bounded LRU map over (u64, u64) keys, most recently used at the
  /// front: each dataset's sensitivity cache and its idempotency window.
  /// Guarded by DatasetState::mu.
  template <typename Value>
  class Lru {
   public:
    using Key = std::pair<uint64_t, uint64_t>;

    /// Found → copies the value out and moves the key to the front.
    bool Lookup(const Key& key, Value* out) {
      auto it = index_.find(key);
      if (it == index_.end()) return false;
      entries_.splice(entries_.begin(), entries_, it->second);
      *out = entries_.front().second;
      return true;
    }
    /// Inserts (or refreshes) `key` at the front and returns the keys
    /// evicted beyond `capacity`.
    std::vector<Key> Insert(const Key& key, Value value, size_t capacity) {
      std::vector<Key> evicted;
      auto it = index_.find(key);
      if (it != index_.end()) {
        it->second->second = std::move(value);
        entries_.splice(entries_.begin(), entries_, it->second);
        return evicted;
      }
      entries_.emplace_front(key, std::move(value));
      index_[key] = entries_.begin();
      while (entries_.size() > capacity) {
        evicted.push_back(entries_.back().first);
        index_.erase(entries_.back().first);
        entries_.pop_back();
      }
      return evicted;
    }
    void Clear() {
      entries_.clear();
      index_.clear();
    }
    size_t size() const { return entries_.size(); }

   private:
    std::list<std::pair<Key, Value>> entries_;
    std::map<Key, typename decltype(entries_)::iterator> index_;
  };

  /// A completed idempotency key's binding: the request it first named and
  /// the serialized response a replay returns.
  struct DedupEntry {
    uint64_t request_hash = 0;
    std::string blob;
  };

  struct DatasetState {
    // Guards epoch/cache/queries for short reads and writes only. Release
    // paths never overlap on a dataset — the dispatcher admits at most one
    // in-flight request per dataset (see busy_datasets_) — so this mutex
    // is never held across a run. Holding it across one would deadlock: a
    // pool worker waiting inside the runner's ParallelFor help-runs queued
    // tasks, and could pick up a second request for the same dataset.
    std::mutex mu;
    std::shared_ptr<core::RangeEnforcer> enforcer =
        std::make_shared<core::RangeEnforcer>();
    uint64_t epoch = 0;
    uint64_t queries = 0;
    /// (fingerprint, epoch) → inferred sensitivity and output range.
    Lru<core::SensitivityHint> cache;
    /// (nonce, seq) of completed idempotency keys (bounded by
    /// kDedupWindow).
    Lru<DedupEntry> dedup;
    uint64_t dedup_replays = 0;  // lookups answered from the window
    /// Durable journal; null when durability is off or the last open
    /// failed (then journal_status carries the error, queries on this
    /// dataset fail rather than silently losing durability, and the next
    /// DatasetFor retries the open). Written under `mu` as well as
    /// datasets_mu_.
    std::unique_ptr<Journal> journal;
    Status journal_status = Status::Ok();
  };

  /// What Prepare hands the run and Commit.
  struct Ticket {
    std::shared_ptr<DatasetState> ds;
    bool keyed = false;  // idempotency key live, bound to request_hash
    uint64_t request_hash = 0;
    uint64_t fingerprint = 0;  // sensitivity-cache key: fingerprint, epoch
    uint64_t epoch = 0;
    core::SensitivityHint hint;
    bool cache_hit = false;
    /// A completed key's frozen response: returned, nothing charged or run.
    std::optional<QueryResponse> replay;
  };

  /// The dataset's state, created on first use. The one place that opens
  /// a journal: whenever durability is on and the dataset has none yet
  /// (a failed open is retried; a journal a failed write closed is not).
  std::shared_ptr<DatasetState> DatasetFor(const std::string& dataset_id);
  /// Dispatch queued requests while a global slot is free; at most one
  /// in-flight request per tenant (keeps each tenant FIFO) and at most one
  /// per dataset (serializes the registry/budget/cache without holding a
  /// lock across the run). A tenant whose head request targets a busy
  /// dataset waits — head-of-line order is what makes per-dataset request
  /// order deterministic. Called with `mu_` held.
  void MaybeDispatchLocked();
  /// Prepare, run, Commit; a failed run or commit refunds in memory.
  Result<QueryResponse> RunOne(Pending& pending, double queue_seconds);
  /// The pre-flight cancel check, the dedup replay, the journal gate, the
  /// in-memory charge and the sensitivity-cache lookup.
  Result<Ticket> Prepare(const QueryRequest& request);
  /// Builds the response and its blob, appends the kRelease (the only code
  /// that writes one), fills the cache and the dedup window, journals its
  /// expiries and counts. Fails only when the kRelease append does.
  Result<QueryResponse> Commit(const QueryRequest& request,
                               const Ticket& ticket,
                               const core::UpaRunResult& result,
                               double queue_seconds);
  /// Prunes queued requests whose token tripped (deadline/cancel) so they
  /// fail fast instead of occupying backlog until dispatch.
  void WatchdogLoop();
  void CountCancelMetric(StatusCode code);
  /// Why the service refuses everything: an invalid config or recovery.
  const Status& inert_status() const {
    return config_status_.ok() ? recovery_status_ : config_status_;
  }

  engine::ExecContext* ctx_;
  ServiceConfig config_;
  dp::PrivacyAccountant accountant_;
  Status recovery_status_ = Status::Ok();
  Status config_status_ = Status::Ok();

  mutable std::mutex mu_;  // tenants_, busy_datasets_, in_flight_, shutdown
  std::condition_variable idle_cv_;
  std::map<std::string, TenantState> tenants_;
  /// Datasets with a request currently in flight.
  std::set<std::string> busy_datasets_;
  size_t in_flight_ = 0;
  bool shutting_down_ = false;

  mutable std::mutex datasets_mu_;
  std::map<std::string, std::shared_ptr<DatasetState>> datasets_;

  std::condition_variable watchdog_cv_;  // paired with mu_
  bool watchdog_stop_ = false;           // guarded by mu_
  std::thread watchdog_;
};

}  // namespace upa::service
