#include "cluster/router.h"

#include <unistd.h>

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/timer.h"

namespace upa::cluster {
namespace {

/// Open client connections; surplus accepts are closed on arrival.
constexpr size_t kMaxConnections = 1024;
/// Per-attempt connect timeout of a shard dial.
constexpr double kDialTimeoutMs = 2000.0;
/// How long a shard may take to answer a health probe.
constexpr double kHealthProbeTimeoutMs = 2000.0;
/// Period of the loop's tick: dial, probe and parked-route deadlines.
constexpr double kTickIntervalMs = 5.0;

}  // namespace

Router::Router(std::vector<ShardAddress> shards, RouterConfig config)
    : shard_addrs_(std::move(shards)),
      config_(std::move(config)),
      backoff_(config_.backoff_initial_ms, config_.backoff_max_ms,
               config_.backoff_jitter_seed),
      ring_(shard_addrs_.empty() ? 1 : shard_addrs_.size(),
            config_.ring_vnodes) {
  healthy_ = std::make_unique<std::atomic<bool>[]>(shard_addrs_.size());
  for (size_t i = 0; i < shard_addrs_.size(); ++i) healthy_[i] = false;
}

Router::~Router() { Stop(); }

Status Router::Start() {
  if (started_) return Status::InvalidArgument("router already started");
  if (shard_addrs_.empty()) {
    return Status::InvalidArgument("router requires at least one shard");
  }

  Result<net::ListenSocket> listener = net::Listen(config_.host, config_.port);
  UPA_RETURN_IF_ERROR(listener.status());
  listener_ = listener.value();

  links_.resize(shard_addrs_.size());
  for (size_t i = 0; i < shard_addrs_.size(); ++i) {
    links_[i].index = i;
    links_[i].addr = shard_addrs_[i];
    links_[i].backoff_ms = backoff_.initial_ms();
    links_[i].next_dial_ns = 0;  // dial on the first tick
  }

  started_ = true;
  loop_thread_ = std::thread([this] {
    Status registered = loop_.RegisterFd(
        listener_.fd, /*want_read=*/true, /*want_write=*/false,
        [this](bool readable, bool, bool) {
          if (readable) HandleAccept();
        });
    UPA_CHECK_MSG(registered.ok(), registered.ToString());
    loop_.SetTickHandler(kTickIntervalMs, [this] { OnTick(); });
    // Dial every shard right away instead of waiting for the first tick.
    for (ShardLink& link : links_) StartDial(link);
    loop_.Run();
    // Loop exited: tear everything down on the owning thread.
    connections_.clear();
    for (ShardLink& link : links_) link.conn.reset();
    loop_.UnregisterFd(listener_.fd);
    ::close(listener_.fd);
  });
  return Status::Ok();
}

void Router::Stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  // Drain: give routed queries (parked ones included, via the per-client
  // count) a chance to come back and flush out.
  net::Drain(
      loop_, listener_.fd, [this] { HandleAccept(); },
      [this] {
        std::vector<uint64_t> ids;
        ids.reserve(connections_.size());
        for (const auto& [id, conn] : connections_) ids.push_back(id);
        for (uint64_t id : ids) HandleClientReadable(id);
      },
      [this] {
        if (total_inflight_.load(std::memory_order_acquire) != 0) return false;
        for (const auto& [id, conn] : connections_) {
          if (conn->inflight > 0 || !conn->io.Idle()) return false;
        }
        return true;
      });
  loop_.Stop();
  if (loop_thread_.joinable()) loop_thread_.join();
}

bool Router::ShardHealthy(size_t shard) const {
  return shard < shard_addrs_.size() &&
         healthy_[shard].load(std::memory_order_acquire);
}

Router::Stats Router::stats() const {
  Stats s;
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.open_connections = open_connections_.load(std::memory_order_relaxed);
  s.routed = routed_.load(std::memory_order_relaxed);
  s.replies = replies_.load(std::memory_order_relaxed);
  s.rejected_unavailable =
      rejected_unavailable_.load(std::memory_order_relaxed);
  s.rejected_backpressure =
      rejected_backpressure_.load(std::memory_order_relaxed);
  s.shard_reconnects = shard_reconnects_.load(std::memory_order_relaxed);
  s.failed_over_inflight =
      failed_over_inflight_.load(std::memory_order_relaxed);
  s.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  s.retried = retried_.load(std::memory_order_relaxed);
  s.retry_exhausted = retry_exhausted_.load(std::memory_order_relaxed);
  s.retry_parked = retry_parked_.load(std::memory_order_relaxed);
  return s;
}

std::string Router::StatsText() const {
  Stats s = stats();
  std::ostringstream os;
  os << "== upa router ==\n"
     << "  port                  " << listener_.port << "\n"
     << "  shards                " << shard_addrs_.size() << "\n"
     << "  open_connections      " << s.open_connections << "\n"
     << "  accepted              " << s.accepted << "\n"
     << "  routed                " << s.routed << "\n"
     << "  replies               " << s.replies << "\n"
     << "  rejected_unavailable  " << s.rejected_unavailable << "\n"
     << "  rejected_backpressure " << s.rejected_backpressure << "\n"
     << "  shard_reconnects      " << s.shard_reconnects << "\n"
     << "  failed_over_inflight  " << s.failed_over_inflight << "\n"
     << "  protocol_errors       " << s.protocol_errors << "\n"
     << "  retried               " << s.retried << "\n"
     << "  retry_exhausted       " << s.retry_exhausted << "\n"
     << "  retry_parked          " << s.retry_parked << "\n";
  for (size_t i = 0; i < shard_addrs_.size(); ++i) {
    os << "  shard[" << i << "] " << shard_addrs_[i].host << ":"
       << shard_addrs_[i].port << " "
       << (ShardHealthy(i) ? "healthy" : "down");
    if (respawn_counter_) os << " respawns=" << respawn_counter_(i);
    os << "\n";
  }
  return os.str();
}

void Router::HandleAccept() {
  net::AcceptAll(
      listener_.fd, connections_.size(), kMaxConnections, [this](int fd) {
        const uint64_t id = next_conn_id_++;
        auto conn = std::make_unique<ClientConn>(id, loop_, fd);
        Status watched = conn->io.Watch(
            /*want_write=*/false,
            [this, id](bool readable, bool writable, bool error) {
              auto it = connections_.find(id);
              if (it == connections_.end()) return;
              if (error) {
                CloseClient(id);
                return;
              }
              if (writable) FlushClient(*it->second);
              if (readable) HandleClientReadable(id);
            });
        if (!watched.ok()) return false;
        connections_[id] = std::move(conn);
        accepted_.fetch_add(1, std::memory_order_relaxed);
        open_connections_.store(connections_.size(),
                                std::memory_order_relaxed);
        return true;
      });
}

void Router::HandleClientReadable(uint64_t conn_id) {
  auto it = connections_.find(conn_id);
  if (it == connections_.end()) return;
  ClientConn& conn = *it->second;
  Status read = conn.io.Read([&] {
    ProcessClientFrames(conn);
    return connections_.count(conn_id) != 0;  // frames may close it
  });
  if (!read.ok()) CloseClient(conn_id);
}

void Router::ProcessClientFrames(ClientConn& conn) {
  const uint64_t conn_id = conn.id;
  for (;;) {
    net::Frame frame;
    Status error = Status::Ok();
    net::FrameAssembler::Outcome outcome = conn.io.NextFrame(&frame, &error);
    if (outcome == net::FrameAssembler::Outcome::kNeedMore) return;
    if (outcome == net::FrameAssembler::Outcome::kError) {
      AbortClient(conn, error);
      return;
    }
    switch (frame.type) {
      case net::FrameType::kQueryRequest: {
        net::WireQuery query;
        Status decoded = net::DecodeQueryPayload(frame.payload, &query);
        if (!decoded.ok()) {
          AbortClient(conn, decoded);
          return;
        }
        RouteQuery(conn, std::move(query));
        break;
      }
      case net::FrameType::kStatsRequest: {
        // The router answers stats itself (its own counters + shard link
        // states) rather than fanning out to every shard: the dump stays
        // cheap and available even while shards are down.
        QueueClientWrite(conn, net::EncodeStatsResponseFrame(StatsText()));
        break;
      }
      default: {
        AbortClient(conn, Status::InvalidArgument(
                              "unexpected frame type from client"));
        return;
      }
    }
    if (connections_.find(conn_id) == connections_.end()) return;
  }
}

void Router::RouteQuery(ClientConn& conn, net::WireQuery query) {
  const size_t shard = ring_.ShardFor(query.dataset_id);
  ShardLink& link = links_[shard];

  auto reject = [&](const Status& status, std::atomic<uint64_t>& counter) {
    counter.fetch_add(1, std::memory_order_relaxed);
    QueueClientWrite(conn, net::EncodeResultFrame(
                               net::WireResult::From(query.client_tag, status)));
  };

  if (link.state != ShardLink::State::kHealthy) {
    // Breaker open (or half-open): fail fast rather than queue behind an
    // unknown outage, hinting when the next dial attempt is due.
    Status unavailable =
        Status::Unavailable("shard " + std::to_string(shard) +
                            " unavailable (reconnecting); retry");
    unavailable.set_retry_after_ms(
        std::max<int64_t>(1, static_cast<int64_t>(link.backoff_ms)));
    reject(unavailable, rejected_unavailable_);
    return;
  }
  if (link.inflight.size() >= kMaxInflightPerShard ||
      link.conn->unsent_bytes() > net::kWriteBufferHighBytes) {
    Status full =
        Status::ResourceExhausted("shard " + std::to_string(shard) +
                                  " is at in-flight capacity; retry");
    full.set_retry_after_ms(10);
    reject(full, rejected_backpressure_);
    return;
  }

  const uint64_t router_tag = next_router_tag_++;
  Route route;
  route.conn_id = conn.id;
  route.client_tag = query.client_tag;
  if (query.client_nonce != 0 && config_.retry_limit > 0) {
    // Keyed: keep the original query so a failover can re-send it. The
    // key makes the re-send budget-safe — a completed release replays.
    route.retries_left = config_.retry_limit;
    route.query = query;
  }
  ++conn.inflight;
  total_inflight_.fetch_add(1, std::memory_order_acq_rel);
  routed_.fetch_add(1, std::memory_order_relaxed);
  query.client_tag = router_tag;
  link.inflight[router_tag] = std::move(route);
  QueueShardWrite(link, net::EncodeQueryFrame(query));
}

void Router::RespondToClient(ClientConn& conn,
                             const net::WireResult& result) {
  replies_.fetch_add(1, std::memory_order_relaxed);
  QueueClientWrite(conn, net::EncodeResultFrame(result));
}

void Router::QueueClientWrite(ClientConn& conn, std::string bytes) {
  conn.io.Append(std::move(bytes));
  FlushClient(conn);
}

void Router::FlushClient(ClientConn& conn) {
  Status flushed = conn.io.Flush();
  if (!flushed.ok() || conn.io.Finished()) CloseClient(conn.id);
}

void Router::AbortClient(ClientConn& conn, const Status& error) {
  protocol_errors_.fetch_add(1, std::memory_order_relaxed);
  conn.io.CloseAfterFlush();
  QueueClientWrite(conn, net::EncodeErrorFrame(error));
}

void Router::CloseClient(uint64_t conn_id) {
  // Routed queries stay in flight on their shards; when the responses
  // come back the routes resolve to a gone connection and are dropped
  // (the shard has already released/charged — the client walked away).
  if (connections_.erase(conn_id) == 0) return;  // closes the socket
  open_connections_.store(connections_.size(), std::memory_order_relaxed);
}

void Router::StartDial(ShardLink& link) {
  Result<int> fd_or = net::StartConnect(link.addr.host, link.addr.port);
  const int64_t now = NowNanos();
  if (!fd_or.ok()) {
    ScheduleRedial(link, now);
    return;
  }
  // A dialled link always reads: the shard's responses are what drain it.
  link.conn = std::make_unique<net::FramedConn>(loop_, fd_or.value(),
                                                 /*backpressure=*/false);
  link.probe_outstanding = false;
  link.state = ShardLink::State::kConnecting;
  link.dial_deadline_ns =
      now + static_cast<int64_t>(kDialTimeoutMs * 1e6);
  const size_t shard = link.index;
  Status watched = link.conn->Watch(
      /*want_write=*/true,
      [this, shard](bool readable, bool writable, bool error) {
        HandleShardEvent(shard, readable, writable, error);
      });
  if (!watched.ok()) {
    link.conn.reset();
    ScheduleRedial(link, now);
  }
}

void Router::HandleShardEvent(size_t shard, bool readable, bool writable,
                              bool error) {
  ShardLink& link = links_[shard];
  if (link.conn == nullptr) return;
  if (error) {
    FailShard(link, Status::Internal("shard socket error"));
    return;
  }
  if (link.state == ShardLink::State::kConnecting && writable) {
    Status finished = net::FinishConnect(link.conn->fd());
    if (!finished.ok()) {
      FailShard(link, finished);
      return;
    }
    // Connected; probe before taking traffic. The probe doubles as the
    // recovery barrier: the shard only answers once its journal replay
    // finished (the server starts listening after recovery).
    link.state = ShardLink::State::kProbing;
    SendProbe(link);
    return;
  }
  if (writable) FlushShard(link);
  if (link.conn != nullptr && readable) {
    // Frame processing never redials synchronously (only OnTick does), so
    // a null link.conn is the only sign that it failed the link.
    Status read = link.conn->Read([&] {
      ProcessShardFrames(link);
      return link.conn != nullptr;
    });
    if (!read.ok()) FailShard(link, read);
  }
}

void Router::ProcessShardFrames(ShardLink& link) {
  for (;;) {
    net::Frame frame;
    Status error = Status::Ok();
    net::FrameAssembler::Outcome outcome = link.conn->NextFrame(&frame, &error);
    if (outcome == net::FrameAssembler::Outcome::kNeedMore) return;
    if (outcome == net::FrameAssembler::Outcome::kError) {
      FailShard(link, error);
      return;
    }
    switch (frame.type) {
      case net::FrameType::kQueryResponse: {
        net::WireResult result;
        Status decoded = net::DecodeResultPayload(frame.payload, &result);
        if (!decoded.ok()) {
          FailShard(link, decoded);
          return;
        }
        auto route_it = link.inflight.find(result.client_tag);
        if (route_it == link.inflight.end()) {
          // Same rule as the client's stale-tag latch: a response nothing
          // is waiting for means the stream is desynchronized.
          FailShard(link, Status::Internal(
                              "shard response for unknown router tag"));
          return;
        }
        Route route = route_it->second;
        link.inflight.erase(route_it);
        total_inflight_.fetch_sub(1, std::memory_order_acq_rel);
        auto conn_it = connections_.find(route.conn_id);
        if (conn_it != connections_.end()) {
          ClientConn& conn = *conn_it->second;
          if (conn.inflight > 0) --conn.inflight;
          result.client_tag = route.client_tag;
          RespondToClient(conn, result);
        }
        break;
      }
      case net::FrameType::kStatsResponse: {
        link.probe_outstanding = false;
        if (link.state == ShardLink::State::kProbing) {
          link.state = ShardLink::State::kHealthy;
          link.backoff_ms = backoff_.initial_ms();
          healthy_[link.index].store(true, std::memory_order_release);
          // Recovery barrier passed: the shard answered, so its journal
          // replay is complete — parked routes can re-send now.
          FlushParked(link);
        }
        break;
      }
      case net::FrameType::kError: {
        Status server_error = Status::Ok();
        if (!net::DecodeErrorPayload(frame.payload, &server_error).ok()) {
          server_error = Status::Internal("undecodable shard error frame");
        }
        // The shard closes after an error frame; treat as link death.
        FailShard(link, server_error);
        return;
      }
      default:
        FailShard(link,
                  Status::Internal("unexpected frame type from shard"));
        return;
    }
    if (link.conn == nullptr) return;
  }
}

void Router::QueueShardWrite(ShardLink& link, std::string bytes) {
  link.conn->Append(std::move(bytes));
  FlushShard(link);
}

void Router::FlushShard(ShardLink& link) {
  Status flushed = link.conn->Flush();
  if (!flushed.ok()) FailShard(link, flushed);
}

void Router::SendProbe(ShardLink& link) {
  link.probe_outstanding = true;
  link.last_probe_ns = NowNanos();
  link.probe_deadline_ns =
      link.last_probe_ns +
      static_cast<int64_t>(kHealthProbeTimeoutMs * 1e6);
  QueueShardWrite(link, net::EncodeStatsRequestFrame());
}

void Router::FailShard(ShardLink& link, const Status& reason) {
  link.conn.reset();
  healthy_[link.index].store(false, std::memory_order_release);
  shard_reconnects_.fetch_add(1, std::memory_order_relaxed);
  const int64_t now = NowNanos();

  // Routed-but-unanswered queries: the shard may or may not have journaled
  // the release, but nothing was delivered. A keyed query with retry
  // budget left is parked — its idempotency key makes the eventual re-send
  // safe either way (journaled → replay; not journaled → nothing was
  // charged durably and the query re-runs). Everything else
  // fails back to the client as unresolved.
  for (auto& [router_tag, route] : link.inflight) {
    total_inflight_.fetch_sub(1, std::memory_order_acq_rel);
    auto conn_it = connections_.find(route.conn_id);
    if (conn_it == connections_.end()) continue;
    if (route.retries_left > 0) {
      --route.retries_left;
      route.park_deadline_ns =
          now + static_cast<int64_t>(config_.retry_timeout_ms * 1e6);
      retry_parked_.fetch_add(1, std::memory_order_relaxed);
      link.parked.push_back(std::move(route));
      continue;
    }
    ClientConn& conn = *conn_it->second;
    failed_over_inflight_.fetch_add(1, std::memory_order_relaxed);
    if (conn.inflight > 0) --conn.inflight;
    Status lost = Status::Unavailable("shard " + std::to_string(link.index) +
                                      " lost: " + reason.message());
    lost.set_retry_after_ms(
        std::max<int64_t>(1, static_cast<int64_t>(link.backoff_ms)));
    RespondToClient(conn, net::WireResult::From(route.client_tag, lost));
  }
  link.inflight.clear();
  link.probe_outstanding = false;
  ScheduleRedial(link, now);
}

void Router::FlushParked(ShardLink& link) {
  if (link.parked.empty()) return;
  std::vector<Route> pending = std::move(link.parked);
  link.parked.clear();
  for (Route& route : pending) ResendRoute(std::move(route));
}

void Router::ResendRoute(Route route) {
  retry_parked_.fetch_sub(1, std::memory_order_relaxed);
  auto conn_it = connections_.find(route.conn_id);
  if (conn_it == connections_.end()) return;  // client left while parked
  // Re-resolve the ring — the route must land wherever the dataset lives
  // NOW, not on the link it happened to be parked against.
  const size_t shard = ring_.ShardFor(route.query.dataset_id);
  ShardLink& link = links_[shard];
  ClientConn& conn = *conn_it->second;
  if (link.state != ShardLink::State::kHealthy) {
    // The re-send raced another failure (or resolved to a different,
    // still-down shard): keep waiting on that link's recovery under the
    // original deadline. The park was already paid for from the retry
    // budget — re-parking costs nothing further.
    retry_parked_.fetch_add(1, std::memory_order_relaxed);
    link.parked.push_back(std::move(route));
    return;
  }
  if (link.inflight.size() >= kMaxInflightPerShard ||
      link.conn->unsent_bytes() > net::kWriteBufferHighBytes) {
    rejected_backpressure_.fetch_add(1, std::memory_order_relaxed);
    if (conn.inflight > 0) --conn.inflight;
    Status full = Status::ResourceExhausted(
        "shard " + std::to_string(shard) +
        " is at in-flight capacity after failover; retry");
    full.set_retry_after_ms(10);
    RespondToClient(conn, net::WireResult::From(route.client_tag, full));
    return;
  }
  const uint64_t router_tag = next_router_tag_++;
  net::WireQuery query = route.query;
  query.client_tag = router_tag;
  retried_.fetch_add(1, std::memory_order_relaxed);
  total_inflight_.fetch_add(1, std::memory_order_acq_rel);
  link.inflight[router_tag] = std::move(route);
  QueueShardWrite(link, net::EncodeQueryFrame(query));
}

void Router::ExpireParked(Route& route, const ShardLink& link) {
  retry_parked_.fetch_sub(1, std::memory_order_relaxed);
  retry_exhausted_.fetch_add(1, std::memory_order_relaxed);
  // An expired retry is still a failover failure as far as observers are
  // concerned — the retry machinery defers failures, it never hides them.
  failed_over_inflight_.fetch_add(1, std::memory_order_relaxed);
  auto conn_it = connections_.find(route.conn_id);
  if (conn_it == connections_.end()) return;
  ClientConn& conn = *conn_it->second;
  if (conn.inflight > 0) --conn.inflight;
  Status expired = Status::Unavailable(
      "shard " + std::to_string(link.index) +
      " did not recover within the retry window");
  expired.set_retry_after_ms(
      std::max<int64_t>(1, static_cast<int64_t>(link.backoff_ms)));
  RespondToClient(conn, net::WireResult::From(route.client_tag, expired));
}

void Router::ScheduleRedial(ShardLink& link, int64_t now) {
  link.state = ShardLink::State::kBackoff;
  link.next_dial_ns =
      now + static_cast<int64_t>(backoff_.Next(&link.backoff_ms) * 1e6);
}

void Router::OnTick() {
  const int64_t now = NowNanos();
  for (ShardLink& link : links_) {
    if (!link.parked.empty()) {
      std::vector<Route> keep;
      keep.reserve(link.parked.size());
      for (Route& route : link.parked) {
        if (now >= route.park_deadline_ns) {
          ExpireParked(route, link);
        } else {
          keep.push_back(std::move(route));
        }
      }
      link.parked = std::move(keep);
    }
    switch (link.state) {
      case ShardLink::State::kBackoff:
        if (now >= link.next_dial_ns) StartDial(link);
        break;
      case ShardLink::State::kConnecting:
        if (now > link.dial_deadline_ns) {
          FailShard(link, Status::DeadlineExceeded("shard connect timed out"));
        }
        break;
      case ShardLink::State::kProbing:
        if (now > link.probe_deadline_ns) {
          FailShard(link,
                    Status::DeadlineExceeded("shard health probe timed out"));
        }
        break;
      case ShardLink::State::kHealthy:
        if (link.probe_outstanding && now > link.probe_deadline_ns) {
          FailShard(link,
                    Status::DeadlineExceeded("shard health probe timed out"));
        } else if (!link.probe_outstanding &&
                   config_.health_probe_interval_ms > 0.0 &&
                   now - link.last_probe_ns >
                       static_cast<int64_t>(
                           config_.health_probe_interval_ms * 1e6)) {
          SendProbe(link);
        }
        break;
    }
  }
}

}  // namespace upa::cluster
