#include "service/service.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <sstream>

#include "common/failpoint.h"
#include "common/hash.h"

namespace upa::service {
namespace {

/// Backoff hint stamped on backlog rejections (Status::retry_after_ms,
/// carried to clients in the wire error frame).
constexpr int64_t kRetryAfterHintMs = 50;

/// Poll period of the watchdog that prunes queued requests whose deadline
/// expired before dispatch (in-flight deadline checks are cooperative).
constexpr double kWatchdogIntervalMs = 2.0;

}  // namespace

void EncodeResponse(const QueryResponse& r, PayloadWriter* out) {
  out->PutDouble(r.released);
  out->PutDouble(r.epsilon);
  out->PutDouble(r.local_sensitivity);
  out->PutDouble(r.out_range.lo);
  out->PutDouble(r.out_range.hi);
  out->PutU64((r.attack_suspected ? 1u : 0u) |
              (r.degenerate_sensitivity ? 2u : 0u) |
              (r.sensitivity_cache_hit ? 4u : 0u));
  out->PutU64(static_cast<uint64_t>(r.records_removed));
  out->PutU64(r.dataset_epoch);
  out->PutDouble(r.queue_seconds);
  out->PutDouble(r.seconds.sample);
  out->PutDouble(r.seconds.map);
  out->PutDouble(r.seconds.reduce);
  out->PutDouble(r.seconds.enforce);
  out->PutDouble(r.seconds.total);
}

Status DecodeResponse(PayloadReader* in, QueryResponse* out) {
  constexpr uint64_t kKnownFlags = 1u | 2u | 4u;  // as EncodeResponse sets
  uint64_t flags = 0;
  uint64_t removed = 0;
  UPA_RETURN_IF_ERROR(in->GetDouble(&out->released));
  UPA_RETURN_IF_ERROR(in->GetDouble(&out->epsilon));
  UPA_RETURN_IF_ERROR(in->GetDouble(&out->local_sensitivity));
  UPA_RETURN_IF_ERROR(in->GetDouble(&out->out_range.lo));
  UPA_RETURN_IF_ERROR(in->GetDouble(&out->out_range.hi));
  UPA_RETURN_IF_ERROR(in->GetU64(&flags));
  if ((flags & ~kKnownFlags) != 0) {
    return Status::InvalidArgument("unknown response flag bits " +
                                   std::to_string(flags & ~kKnownFlags));
  }
  UPA_RETURN_IF_ERROR(in->GetU64(&removed));
  UPA_RETURN_IF_ERROR(in->GetU64(&out->dataset_epoch));
  UPA_RETURN_IF_ERROR(in->GetDouble(&out->queue_seconds));
  UPA_RETURN_IF_ERROR(in->GetDouble(&out->seconds.sample));
  UPA_RETURN_IF_ERROR(in->GetDouble(&out->seconds.map));
  UPA_RETURN_IF_ERROR(in->GetDouble(&out->seconds.reduce));
  UPA_RETURN_IF_ERROR(in->GetDouble(&out->seconds.enforce));
  UPA_RETURN_IF_ERROR(in->GetDouble(&out->seconds.total));
  out->attack_suspected = (flags & 1u) != 0;
  out->degenerate_sensitivity = (flags & 2u) != 0;
  out->sensitivity_cache_hit = (flags & 4u) != 0;
  out->records_removed = static_cast<size_t>(removed);
  return Status::Ok();
}

std::string EncodeResponseBlob(const QueryResponse& response) {
  PayloadWriter w;
  EncodeResponse(response, &w);
  return w.Take();
}

Status DecodeResponseBlob(std::string_view blob, QueryResponse* out) {
  PayloadReader r(blob);
  Status decoded = DecodeResponse(&r, out);
  if (decoded.ok()) decoded = r.ExpectEnd();
  if (!decoded.ok()) {
    return Status::Internal("journaled response blob is corrupt (" +
                            std::to_string(blob.size()) +
                            " bytes): " + decoded.message());
  }
  return Status::Ok();
}

uint64_t RequestKeyHash(const QueryRequest& request) {
  // The key binds to everything that determines the released bits: the
  // tenant/dataset scope, the query shape, epsilon and the noise seed. A
  // key re-submitted with any of these changed is a client bug, not a
  // retry, and must not be answered with the cached response.
  PayloadWriter w;
  w.PutU64(Fnv1a(request.tenant));
  w.PutU64(Fnv1a(request.dataset_id));
  w.PutU64(Fnv1a(request.query.name));
  w.PutDouble(request.epsilon);
  w.PutU64(request.seed);
  w.PutU64(request.fingerprint);
  return Fnv1a(w.bytes());
}

Status ValidateServiceConfig(const ServiceConfig& config) {
  if (config.max_in_flight == 0) {
    return Status::InvalidArgument(
        "ServiceConfig::max_in_flight must be positive (0 would admit "
        "nothing)");
  }
  if (config.max_queue_per_tenant == 0) {
    return Status::InvalidArgument(
        "ServiceConfig::max_queue_per_tenant must be positive (0 would "
        "reject every submission)");
  }
  if (!std::isfinite(config.budget_per_dataset) ||
      config.budget_per_dataset < 0.0) {
    return Status::InvalidArgument(
        "ServiceConfig::budget_per_dataset must be finite and >= 0, got " +
        std::to_string(config.budget_per_dataset));
  }
  return Status::Ok();
}

UpaService::UpaService(engine::ExecContext* ctx, ServiceConfig config)
    : ctx_(ctx),
      config_(std::move(config)),
      accountant_(config_.budget_per_dataset) {
  UPA_CHECK(ctx_ != nullptr);
  // A bad config makes the service inert (every submission fails with
  // kInvalidArgument) instead of aborting the process: the front door may
  // be constructing it from untrusted operator input.
  config_status_ = ValidateServiceConfig(config_);
  if (!config_status_.ok()) return;

  if (!config_.journal_dir.empty()) {
    // Recover every dataset the journal dir knows about, then resume the
    // in-memory state from it.
    auto recovered_or = RecoverAll(config_.journal_dir);
    if (!recovered_or.ok()) {
      // Recovery stops at the first bad file, so no dataset's ledger or
      // registry was restored, and a file it could not read may name no
      // dataset at all. Serving anything would charge against a full
      // budget and an empty registry: the service goes inert instead.
      recovery_status_ = recovered_or.status();
      ctx_->metrics().AddCounter("service/journal_errors");
      return;
    }
    for (auto& state : recovered_or.value()) {
      std::shared_ptr<DatasetState> ds = DatasetFor(state.dataset_id);
      ds->epoch = state.epoch;
      ds->enforcer->RestoreRegistry(std::move(state.registry));
      // Rebuild the dedup window from the journaled keys, oldest first
      // so the in-memory LRU order matches completion order. Recovery
      // may return more keys than the window holds (kExpire frames for
      // the overflow were lost with the crash); keep the newest.
      size_t keep = std::min(state.dedup.size(), kDedupWindow);
      for (size_t i = state.dedup.size() - keep; i < state.dedup.size();
           ++i) {
        auto& src = state.dedup[i];
        ds->dedup.Insert({src.nonce, src.seq},
                         DedupEntry{src.request_hash,
                                    std::move(src.response_blob)},
                         kDedupWindow);
      }
      ctx_->metrics().AddCounter("service/recovered_dedup_keys", keep);
      accountant_.RestoreLedger(state.dataset_id, state.charged_total);
      ctx_->metrics().AddCounter("service/recovered_datasets");
    }
  }

  watchdog_ = std::thread([this] { WatchdogLoop(); });
}

UpaService::~UpaService() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutting_down_ = true;
    idle_cv_.wait(lock, [this] {
      if (in_flight_ > 0) return false;
      for (const auto& [name, tenant] : tenants_) {
        if (!tenant.queue.empty()) return false;
      }
      return true;
    });
    watchdog_stop_ = true;
  }
  watchdog_cv_.notify_all();
  if (watchdog_.joinable()) watchdog_.join();
}

void UpaService::CountCancelMetric(StatusCode code) {
  if (code == StatusCode::kDeadlineExceeded) {
    ctx_->metrics().AddCounter("service/deadline_exceeded");
  } else {
    ctx_->metrics().AddCounter("service/cancelled");
  }
}

std::future<Result<QueryResponse>> UpaService::Submit(QueryRequest request) {
  auto promise = std::make_shared<std::promise<Result<QueryResponse>>>();
  std::future<Result<QueryResponse>> future = promise->get_future();
  SubmitAsync(std::move(request), [promise](Result<QueryResponse> result) {
    promise->set_value(std::move(result));
  });
  return future;
}

void UpaService::SubmitAsync(QueryRequest request, Callback done) {
  UPA_CHECK(done != nullptr);
  auto pending = std::make_shared<Pending>();
  pending->request = std::move(request);
  pending->done = std::move(done);
  if (!inert_status().ok()) {
    pending->done(inert_status());
    return;
  }

  // Admission fault site (chaos suite): an injected error here must look
  // exactly like any other rejection — immediate resolution, no charge.
  if (Failpoints::Instance().AnyActive()) {
    Status injected = Failpoints::Instance().Evaluate("service/admit");
    if (!injected.ok()) {
      ctx_->metrics().AddCounter("service/rejected");
      pending->done(injected);
      return;
    }
  }

  QueryRequest& req = pending->request;
  if (req.cancel != nullptr || req.deadline_ms > 0) {
    pending->token =
        req.cancel != nullptr ? req.cancel : std::make_shared<CancelToken>();
    if (req.deadline_ms > 0) {
      pending->token->SetDeadlineAfterMillis(req.deadline_ms);
    }
    // Dead on arrival (caller cancelled before submitting, or a
    // non-positive effective deadline): fail without queueing.
    Status st = pending->token->Check();
    if (!st.ok()) {
      CountCancelMetric(st.code());
      pending->done(st);
      return;
    }
  }

  std::unique_lock<std::mutex> lock(mu_);
  if (shutting_down_) {
    lock.unlock();
    pending->done(Status::FailedPrecondition("service is shutting down"));
    return;
  }
  TenantState& tenant = tenants_[pending->request.tenant];
  if (tenant.queue.size() >= config_.max_queue_per_tenant) {
    ++tenant.rejected;
    lock.unlock();
    ctx_->metrics().AddCounter("service/rejected");
    Status full = Status::ResourceExhausted(
        "tenant '" + pending->request.tenant + "' backlog full (" +
        std::to_string(config_.max_queue_per_tenant) + " queued)");
    // Advise the client when to come back instead of leaving it guessing;
    // the hint rides the wire error frame as retry_after_ms.
    full.set_retry_after_ms(kRetryAfterHintMs);
    pending->done(full);
    return;
  }
  ++tenant.submitted;
  tenant.queue.push_back(std::move(pending));
  MaybeDispatchLocked();
}

Result<QueryResponse> UpaService::Execute(QueryRequest request) {
  return Submit(std::move(request)).get();
}

void UpaService::MaybeDispatchLocked() {
  // One pass per free slot: pick the next runnable tenant in name order.
  // A tenant is runnable when it has queued work, nothing of its own in
  // flight (keeps the tenant FIFO), and its head request's dataset is not
  // in flight either (serializes each dataset's release path at dispatch
  // time — no lock is held across the run itself).
  bool dispatched = true;
  while (in_flight_ < config_.max_in_flight && dispatched) {
    dispatched = false;
    for (auto& [name, tenant] : tenants_) {
      if (tenant.running || tenant.queue.empty()) continue;
      const std::string& dataset = tenant.queue.front()->request.dataset_id;
      if (busy_datasets_.count(dataset) > 0) continue;
      std::shared_ptr<Pending> pending = std::move(tenant.queue.front());
      tenant.queue.pop_front();
      tenant.running = true;
      busy_datasets_.insert(dataset);
      ++in_flight_;
      dispatched = true;
      std::string tenant_name = name;
      ctx_->pool().Submit([this, pending, tenant_name] {
        double queue_seconds = pending->queued.ElapsedSeconds();
        ctx_->metrics().RecordLatency("service/queue", queue_seconds);
        Result<QueryResponse> result = RunOne(*pending, queue_seconds);
        {
          std::lock_guard<std::mutex> lock(mu_);
          TenantState& t = tenants_[tenant_name];
          t.running = false;
          ++t.completed;
          busy_datasets_.erase(pending->request.dataset_id);
          --in_flight_;
          MaybeDispatchLocked();
          idle_cv_.notify_all();
        }
        // After the bookkeeping above the service may be destroyed at any
        // time; `pending` is self-owned, so resolving the outcome is safe.
        pending->done(std::move(result));
      });
      if (in_flight_ >= config_.max_in_flight) break;
    }
  }
}

void UpaService::WatchdogLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!watchdog_stop_) {
    watchdog_cv_.wait_for(
        lock,
        std::chrono::duration<double, std::milli>(kWatchdogIntervalMs),
        [this] { return watchdog_stop_; });
    if (watchdog_stop_) break;

    // Prune queued requests whose token tripped: they fail now instead of
    // waiting for a dispatch slot they can no longer use. In-flight
    // requests need no help — their runs poll the same token at every
    // cooperative check.
    std::vector<std::shared_ptr<Pending>> expired;
    for (auto& [name, tenant] : tenants_) {
      for (auto it = tenant.queue.begin(); it != tenant.queue.end();) {
        Pending& p = **it;
        if (p.token != nullptr && !p.token->Check().ok()) {
          ++tenant.cancelled;
          expired.push_back(std::move(*it));
          it = tenant.queue.erase(it);
        } else {
          ++it;
        }
      }
    }
    if (!expired.empty()) {
      idle_cv_.notify_all();  // the destructor waits on empty queues
      lock.unlock();
      for (auto& p : expired) {
        Status st = p->token->status();
        CountCancelMetric(st.code());
        p->done(st);
      }
      lock.lock();
    }
  }
}

std::shared_ptr<UpaService::DatasetState> UpaService::DatasetFor(
    const std::string& dataset_id) {
  std::lock_guard<std::mutex> lock(datasets_mu_);
  auto& slot = datasets_[dataset_id];
  if (!slot) slot = std::make_shared<DatasetState>();
  // Only the caller holding datasets_mu_ writes `journal`, and only while
  // it is null, so reading it here without `mu` is safe.
  if (slot->journal == nullptr && !config_.journal_dir.empty() &&
      inert_status().ok()) {
    auto journal_or = Journal::Open(config_.journal_dir, dataset_id,
                                    config_.journal_fsync);
    std::lock_guard<std::mutex> ds_lock(slot->mu);
    if (journal_or.ok()) {
      slot->journal = std::move(journal_or).value();
      slot->journal_status = Status::Ok();
    } else {
      slot->journal_status = journal_or.status();
      ctx_->metrics().AddCounter("service/journal_errors");
    }
  }
  return slot;
}

Result<QueryResponse> UpaService::RunOne(Pending& pending,
                                         double queue_seconds) {
  const QueryRequest& request = pending.request;
  Stopwatch total;
  engine::ExecMetrics& metrics = ctx_->metrics();
  metrics.AddCounter("service/queries");
  UPA_FAILPOINT("service/run");

  // Install the request's token for this thread; ParallelFor re-installs
  // it inside every helper task, so the whole run tree sees it.
  CancelScope cancel_scope(pending.token.get());

  // The dispatcher admits one request per dataset at a time, so from here
  // to return the dataset's budget, registry and cache see no concurrent
  // release. ds->mu is taken only for short epoch/cache sections inside
  // Prepare and Commit — never across the run (see DatasetState::mu).
  Result<Ticket> prepared = Prepare(request);
  if (!prepared.ok()) return prepared.status();
  Ticket& ticket = prepared.value();
  if (ticket.replay.has_value()) return *std::move(ticket.replay);

  // Crash-injection sites for the exactly-once chaos orchestrator: a
  // SIGKILL at any of the three leaves a different phase of the
  // charge→run→commit protocol behind, and recovery + a keyed retry must
  // land on "released exactly once" from all of them. Here the charge
  // exists in memory only.
  UPA_FAILPOINT_HIT("service/pre_run");

  core::UpaConfig upa_config = config_.upa;
  upa_config.epsilon = request.epsilon;
  core::UpaRunner runner(upa_config);
  runner.share_enforcer(ticket.ds->enforcer);
  Result<core::UpaRunResult> run = runner.Run(
      request.query, request.seed, ticket.cache_hit ? &ticket.hint : nullptr);
  Result<QueryResponse> response = run.status();
  if (run.ok()) {
    // Run done, release not yet durable.
    UPA_FAILPOINT_HIT("service/post_run_pre_release_append");
    response = Commit(request, ticket, run.value(), queue_seconds);
  } else if (run.status().code() == StatusCode::kCancelled ||
             run.status().code() == StatusCode::kDeadlineExceeded) {
    CountCancelMetric(run.status().code());
  }
  if (!response.ok()) {
    // Nothing was released: the runner's last cancellation check sits
    // before the enforcer Register, and Commit fails only when its kRelease
    // append did, so no output reaches the analyst and nothing is durable.
    // The charge was only ever made in memory; it is handed back there.
    accountant_.Refund(request.dataset_id, request.epsilon);
    metrics.AddCounter("service/refunds");
    return response;
  }
  metrics.RecordLatency("service/total", total.ElapsedSeconds());
  // Release durable + dedup window updated, response not yet delivered: a
  // crash here is the pure replay case — the retry must return these
  // exact bytes without charging again.
  UPA_FAILPOINT_HIT("service/post_release_pre_ack");
  return response;
}

Result<UpaService::Ticket> UpaService::Prepare(const QueryRequest& request) {
  engine::ExecMetrics& metrics = ctx_->metrics();
  // Pre-flight: a query that expired in the queue is failed before any
  // charge, so there is nothing to refund.
  Status pre = CancelScope::CheckCurrent();
  if (!pre.ok()) {
    CountCancelMetric(pre.code());
    return pre;
  }

  Ticket ticket;
  ticket.ds = DatasetFor(request.dataset_id);
  DatasetState& ds = *ticket.ds;

  // Exactly-once replay: a key that already completed is answered from the
  // dedup window with the journaled response — byte-identical, before the
  // journal-health gate and before any Charge, so a retry of an
  // acknowledged release can never spend budget (or double-register the
  // output). The key is bound to a request hash: reusing it for a
  // different request is a client bug, rejected rather than replayed.
  ticket.keyed = request.client_nonce != 0;
  if (ticket.keyed) {
    ticket.request_hash = RequestKeyHash(request);
    DedupEntry entry;
    bool hit = false;
    {
      std::lock_guard<std::mutex> ds_lock(ds.mu);
      hit = ds.dedup.Lookup({request.client_nonce, request.client_seq},
                            &entry);
      if (hit) ++ds.dedup_replays;
    }
    if (hit) {
      if (entry.request_hash != ticket.request_hash) {
        metrics.AddCounter("service/dedup_key_mismatch");
        return Status::InvalidArgument(
            "idempotency key (" + std::to_string(request.client_nonce) +
            ", " + std::to_string(request.client_seq) +
            ") was already used for a different request");
      }
      QueryResponse replay;
      Status decoded = DecodeResponseBlob(entry.blob, &replay);
      if (!decoded.ok()) {
        metrics.AddCounter("service/journal_errors");
        return decoded;
      }
      metrics.AddCounter("service/dedup_replays");
      ticket.replay = std::move(replay);
      return ticket;
    }
  }

  if (!config_.journal_dir.empty()) {
    // Durability was requested but this dataset's journal failed to open
    // or was closed by a failed write: failing the query before the charge
    // is the conservative choice (its release could never become durable).
    Status unavailable = Status::Ok();
    {
      std::lock_guard<std::mutex> ds_lock(ds.mu);
      if (ds.journal == nullptr || ds.journal->closed()) {
        unavailable = ds.journal_status.ok()
                          ? Status::Internal("journal unavailable for '" +
                                             request.dataset_id + "'")
                          : ds.journal_status;
      }
    }
    if (!unavailable.ok()) {
      metrics.AddCounter("service/journal_errors");
      return unavailable;
    }
  }

  Status charged = accountant_.Charge(request.dataset_id, request.epsilon);
  if (!charged.ok()) {
    metrics.AddCounter("service/budget_denied");
    return charged;
  }

  ticket.fingerprint = request.fingerprint != 0 ? request.fingerprint
                                                : Fnv1a(request.query.name);
  {
    std::lock_guard<std::mutex> ds_lock(ds.mu);
    ticket.epoch = ds.epoch;
    ticket.cache_hit =
        ds.cache.Lookup({ticket.fingerprint, ticket.epoch}, &ticket.hint);
  }
  metrics.AddCounter(ticket.cache_hit ? "service/sens_cache_hit"
                                      : "service/sens_cache_miss");
  return ticket;
}

Result<QueryResponse> UpaService::Commit(const QueryRequest& request,
                                         const Ticket& ticket,
                                         const core::UpaRunResult& result,
                                         double queue_seconds) {
  engine::ExecMetrics& metrics = ctx_->metrics();
  DatasetState& ds = *ticket.ds;
  QueryResponse response;
  response.released = result.released_output;
  response.epsilon = request.epsilon;
  response.local_sensitivity = result.local_sensitivity;
  response.out_range = result.out_range;
  response.attack_suspected = result.enforcer.attack_suspected;
  response.records_removed = result.enforcer.records_removed;
  response.degenerate_sensitivity = result.degenerate_sensitivity;
  response.sensitivity_cache_hit = ticket.cache_hit;
  response.dataset_epoch = ticket.epoch;
  response.queue_seconds = queue_seconds;
  response.seconds = result.seconds;
  // The exact bytes a replay of this key must return, frozen before the
  // release record is written so journal and window always agree.
  std::string response_blob =
      ticket.keyed ? EncodeResponseBlob(response) : "";

  if (ds.journal != nullptr) {
    // The release and its charge become durable as this one record, BEFORE
    // the response resolves: an unacknowledged release must look like it
    // never happened, and an acknowledged one must survive a crash. The
    // record carries the idempotency key and the serialized response, so
    // recovery can answer a retried key byte-identically without running
    // anything.
    JournalRecord rec;
    rec.type = JournalRecord::Type::kRelease;
    rec.epsilon = request.epsilon;
    rec.partition_outputs = result.partition_outputs;
    if (ticket.keyed) {
      rec.nonce = request.client_nonce;
      rec.key_seq = request.client_seq;
      rec.request_hash = ticket.request_hash;
      rec.response_blob = response_blob;
    }
    Status journaled = ds.journal->Append(rec);
    if (!journaled.ok()) {
      // The analyst never sees this output (the caller returns the error
      // and refunds the charge). The in-memory registry keeps the stray
      // prior until restart — strictly conservative: an extra prior can
      // only trigger more enforcement, never less.
      metrics.AddCounter("service/journal_errors");
      return journaled;
    }
  }

  std::vector<Lru<DedupEntry>::Key> evicted;
  {
    std::lock_guard<std::mutex> ds_lock(ds.mu);
    // Fill the cache only if the data didn't change mid-run: a BumpEpoch
    // that raced the run makes this sensitivity stale on arrival.
    if (!ticket.cache_hit && ds.epoch == ticket.epoch) {
      ds.cache.Insert({ticket.fingerprint, ticket.epoch},
                      core::SensitivityHint{result.local_sensitivity,
                                            result.out_range,
                                            result.degenerate_sensitivity},
                      kSensitivityCacheCapacity);
    }
    if (ticket.keyed) {
      evicted = ds.dedup.Insert(
          {request.client_nonce, request.client_seq},
          DedupEntry{ticket.request_hash, std::move(response_blob)},
          kDedupWindow);
    }
    ++ds.queries;
  }
  if (ds.journal != nullptr) {
    // Journal the eviction so the durable window tracks the in-memory one
    // (recovery otherwise re-trims deterministically — a lost kExpire can
    // widen the recovered window, never corrupt it).
    for (const auto& gone : evicted) {
      JournalRecord expire;
      expire.type = JournalRecord::Type::kExpire;
      expire.nonce = gone.first;
      expire.key_seq = gone.second;
      if (!ds.journal->Append(expire).ok()) {
        metrics.AddCounter("service/journal_errors");
        break;  // journal is poisoned; further appends would fail too
      }
    }
  }
  if (!evicted.empty()) {
    metrics.AddCounter("service/dedup_expired", evicted.size());
  }
  if (result.enforcer.attack_suspected) {
    metrics.AddCounter("service/attacks_suspected");
  }
  // A release that went out at the enforcer's removal cap may still be a
  // neighbour of a prior query (§IV-C); count it so it leaves a trace.
  if (result.enforcer.removal_capped) {
    metrics.AddCounter("service/enforcer_capped");
  }
  metrics.RecordLatency("upa/sample", result.seconds.sample);
  metrics.RecordLatency("upa/map", result.seconds.map);
  metrics.RecordLatency("upa/reduce", result.seconds.reduce);
  metrics.RecordLatency("upa/enforce", result.seconds.enforce);
  return response;
}

void UpaService::BumpEpoch(const std::string& dataset_id) {
  std::shared_ptr<DatasetState> ds = DatasetFor(dataset_id);
  std::lock_guard<std::mutex> lock(ds->mu);
  ++ds->epoch;
  // Stale epochs can never be queried again; drop their entries now
  // instead of waiting for LRU pressure.
  ds->cache.Clear();
  if (ds->journal != nullptr) {
    JournalRecord rec;
    rec.type = JournalRecord::Type::kEpochBump;
    rec.epoch = ds->epoch;
    if (!ds->journal->Append(rec).ok()) {
      // A lost bump record only under-counts the epoch after restart; the
      // sensitivity cache starts empty then, so no stale hint can be
      // served. Count it and move on.
      ctx_->metrics().AddCounter("service/journal_errors");
    }
  }
}

uint64_t UpaService::Epoch(const std::string& dataset_id) const {
  std::lock_guard<std::mutex> lock(datasets_mu_);
  auto it = datasets_.find(dataset_id);
  if (it == datasets_.end()) return 0;
  std::lock_guard<std::mutex> ds_lock(it->second->mu);
  return it->second->epoch;
}

size_t UpaService::CachedSensitivities(const std::string& dataset_id) const {
  std::lock_guard<std::mutex> lock(datasets_mu_);
  auto it = datasets_.find(dataset_id);
  if (it == datasets_.end()) return 0;
  std::lock_guard<std::mutex> ds_lock(it->second->mu);
  return it->second->cache.size();
}

size_t UpaService::DedupWindowSize(const std::string& dataset_id) const {
  std::lock_guard<std::mutex> lock(datasets_mu_);
  auto it = datasets_.find(dataset_id);
  if (it == datasets_.end()) return 0;
  std::lock_guard<std::mutex> ds_lock(it->second->mu);
  return it->second->dedup.size();
}

UpaService::DatasetDurableDebug UpaService::DebugState(
    const std::string& dataset_id) {
  std::shared_ptr<DatasetState> ds = DatasetFor(dataset_id);
  DatasetDurableDebug debug;
  {
    std::lock_guard<std::mutex> ds_lock(ds->mu);
    debug.epoch = ds->epoch;
  }
  debug.registry = ds->enforcer->RegistrySnapshot();
  debug.budget = accountant_.Checkpoint(dataset_id);
  return debug;
}

std::string UpaService::StatsReport() const {
  std::ostringstream out;
  out << "== upa service ==\n";
  if (!config_.shard_name.empty()) {
    out << "shard: " << config_.shard_name << "\n";
  }
  if (!inert_status().ok()) {
    out << "inert (every submission is refused): "
        << inert_status().ToString() << "\n";
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    out << "in_flight: " << in_flight_ << " / " << config_.max_in_flight
        << "\n";
    out << "tenants:\n";
    for (const auto& [name, tenant] : tenants_) {
      out << "  " << name << ": submitted=" << tenant.submitted
          << " completed=" << tenant.completed
          << " rejected=" << tenant.rejected
          << " cancelled=" << tenant.cancelled
          << " queued=" << tenant.queue.size()
          << (tenant.running ? " [running]" : "") << "\n";
    }
  }
  {
    std::lock_guard<std::mutex> lock(datasets_mu_);
    out << "datasets:\n";
    for (const auto& [id, ds] : datasets_) {
      std::lock_guard<std::mutex> ds_lock(ds->mu);
      out << "  " << id << ": epoch=" << ds->epoch
          << " queries=" << ds->queries
          << " registry=" << ds->enforcer->registry_size()
          << " cached_sens=" << ds->cache.size()
          << " dedup_keys=" << ds->dedup.size()
          << " dedup_replays=" << ds->dedup_replays
          << " spent=" << accountant_.Spent(id)
          << " remaining=" << accountant_.Remaining(id)
          << (ds->journal != nullptr ? " [journaled]" : "") << "\n";
    }
  }
  engine::MetricsSnapshot snapshot = ctx_->metrics().Snapshot();
  if (!snapshot.counters.empty()) {
    out << "counters:\n";
    for (const auto& [name, value] : snapshot.counters) {
      out << "  " << name << ": " << value << "\n";
    }
  }
  if (!snapshot.latency.empty()) {
    out << "latency (p50 / p99 / max, seconds):\n";
    for (const auto& [name, hist] : snapshot.latency) {
      out << "  " << name << ": n=" << hist.count << " p50="
          << hist.QuantileSeconds(0.5) << " p99=" << hist.QuantileSeconds(0.99)
          << " max=" << hist.max_seconds << "\n";
    }
  }
  if (!snapshot.gauges.empty()) {
    out << "gauges:\n";
    for (const auto& [name, value] : snapshot.gauges) {
      out << "  " << name << ": " << value << "\n";
    }
  }
  return out.str();
}

}  // namespace upa::service
