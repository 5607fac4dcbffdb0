#include "cluster/router.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/timer.h"

namespace upa::cluster {
namespace {

/// Per-attempt connect timeout of a shard dial.
constexpr double kDialTimeoutMs = 2000.0;
/// How long a shard may take to answer a health probe.
constexpr double kHealthProbeTimeoutMs = 2000.0;

}  // namespace

Router::Router(std::vector<ShardAddress> shards, RouterConfig config)
    : shard_addrs_(std::move(shards)),
      config_(std::move(config)),
      backoff_(config_.backoff_initial_ms, config_.backoff_max_ms,
               config_.backoff_jitter_seed),
      ring_(shard_addrs_.empty() ? 1 : shard_addrs_.size(),
            config_.ring_vnodes),
      server_(
          net::Handler{
              [this](net::PendingQuery pending, net::WireQuery query) {
                RouteQuery(std::move(pending), std::move(query));
              },
              [this] { return StatsText(); }, [this] { OnTick(); }},
          net::ServerConfig{.host = config_.host, .port = config_.port}) {
  healthy_ = std::make_unique<std::atomic<bool>[]>(shard_addrs_.size());
  links_.resize(shard_addrs_.size());
  for (size_t i = 0; i < shard_addrs_.size(); ++i) {
    healthy_[i] = false;
    links_[i].index = i;
    links_[i].addr = shard_addrs_[i];
    links_[i].backoff_ms = backoff_.initial_ms();
    links_[i].next_dial_ns = 0;  // dial on the first tick
  }
}

Router::~Router() { Stop(); }

Status Router::Start() {
  if (shard_addrs_.empty()) {
    return Status::InvalidArgument("router requires at least one shard");
  }
  UPA_RETURN_IF_ERROR(server_.Start());
  // Dial every shard right away instead of waiting for the first tick.
  server_.loop().RunInLoop([this] { OnTick(); });
  return Status::Ok();
}

void Router::Stop() {
  // The server's drain waits for every routed and parked query to be
  // answered; once its loop thread has joined, the links close here.
  server_.Stop();
  for (ShardLink& link : links_) link.conn.reset();
}

bool Router::ShardHealthy(size_t shard) const {
  return shard < shard_addrs_.size() &&
         healthy_[shard].load(std::memory_order_acquire);
}

Router::Stats Router::stats() const {
  Stats s;
  s.routed = routed_.load(std::memory_order_relaxed);
  s.replies = replies_.load(std::memory_order_relaxed);
  s.rejected_unavailable =
      rejected_unavailable_.load(std::memory_order_relaxed);
  s.rejected_backpressure =
      rejected_backpressure_.load(std::memory_order_relaxed);
  s.shard_link_failures =
      shard_link_failures_.load(std::memory_order_relaxed);
  s.failed_over_inflight =
      failed_over_inflight_.load(std::memory_order_relaxed);
  s.retried = retried_.load(std::memory_order_relaxed);
  s.retry_exhausted = retry_exhausted_.load(std::memory_order_relaxed);
  s.retry_parked = retry_parked_.load(std::memory_order_relaxed);
  return s;
}

std::string Router::StatsText() const {
  Stats s = stats();
  std::ostringstream os;
  os << "== upa router ==\n"
     << "  shards                " << shard_addrs_.size() << "\n"
     << "  routed                " << s.routed << "\n"
     << "  replies               " << s.replies << "\n"
     << "  rejected_unavailable  " << s.rejected_unavailable << "\n"
     << "  rejected_backpressure " << s.rejected_backpressure << "\n"
     << "  shard_link_failures   " << s.shard_link_failures << "\n"
     << "  failed_over_inflight  " << s.failed_over_inflight << "\n"
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

void Router::RouteQuery(net::PendingQuery pending, net::WireQuery query) {
  const size_t shard = ring_.ShardFor(query.dataset_id);
  ShardLink& link = links_[shard];

  auto reject = [&](const Status& status, std::atomic<uint64_t>& counter) {
    counter.fetch_add(1, std::memory_order_relaxed);
    server_.Answer(pending, net::EncodeResultFrame(net::WireResult::From(
                                query.client_tag, status)));
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
  route.pending = std::move(pending);
  route.client_tag = query.client_tag;
  if (query.client_nonce != 0 && config_.retry_limit > 0) {
    // Keyed: keep the original query so a failover can re-send it. The
    // key makes the re-send budget-safe — a completed release replays.
    route.retries_left = config_.retry_limit;
    route.query = query;
  }
  routed_.fetch_add(1, std::memory_order_relaxed);
  query.client_tag = router_tag;
  link.inflight[router_tag] = std::move(route);
  QueueShardWrite(link, net::EncodeQueryFrame(query));
}

bool Router::Reply(const Route& route, net::WireResult result) {
  result.client_tag = route.client_tag;
  if (!server_.Answer(route.pending, net::EncodeResultFrame(result))) {
    return false;
  }
  replies_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void Router::StartDial(ShardLink& link) {
  Result<int> fd_or = net::StartConnect(link.addr.host, link.addr.port);
  const int64_t now = NowNanos();
  if (!fd_or.ok()) {
    ScheduleRedial(link, now);
    return;
  }
  // A dialled link always reads: the shard's responses are what drain it.
  link.conn = std::make_unique<net::FramedConn>(
      server_.loop(), fd_or.value(), /*backpressure=*/false);
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
        Route route = std::move(route_it->second);
        link.inflight.erase(route_it);
        Reply(route, std::move(result));
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
  shard_link_failures_.fetch_add(1, std::memory_order_relaxed);
  const int64_t now = NowNanos();

  // Routed-but-unanswered queries: the shard may or may not have journaled
  // the release, but nothing was delivered. A keyed query with retry
  // budget left is parked — its idempotency key makes the eventual re-send
  // safe either way (journaled → replay; not journaled → nothing was
  // charged durably and the query re-runs). Everything else
  // fails back to the client as unresolved. A client that left gets no
  // park: a re-send would spend budget on a release nobody receives.
  for (auto& [router_tag, route] : link.inflight) {
    if (route.retries_left > 0 && !route.pending.cancel->cancelled()) {
      --route.retries_left;
      route.park_deadline_ns =
          now + static_cast<int64_t>(config_.retry_timeout_ms * 1e6);
      retry_parked_.fetch_add(1, std::memory_order_relaxed);
      link.parked.push_back(std::move(route));
      continue;
    }
    Status lost = Status::Unavailable("shard " + std::to_string(link.index) +
                                      " lost: " + reason.message());
    lost.set_retry_after_ms(
        std::max<int64_t>(1, static_cast<int64_t>(link.backoff_ms)));
    if (Reply(route, net::WireResult::From(route.client_tag, lost))) {
      failed_over_inflight_.fetch_add(1, std::memory_order_relaxed);
    }
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
  if (route.pending.cancel->cancelled()) {
    // The client left while parked: settle the server's in-flight count
    // (the frame is dropped) and send nothing to the shard.
    Reply(route, net::WireResult::From(
                     route.client_tag, Status::Cancelled("client left")));
    return;
  }
  // Re-resolve the ring — the route must land wherever the dataset lives
  // NOW, not on the link it happened to be parked against.
  const size_t shard = ring_.ShardFor(route.query.dataset_id);
  ShardLink& link = links_[shard];
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
    Status full = Status::ResourceExhausted(
        "shard " + std::to_string(shard) +
        " is at in-flight capacity after failover; retry");
    full.set_retry_after_ms(10);
    Reply(route, net::WireResult::From(route.client_tag, full));
    return;
  }
  const uint64_t router_tag = next_router_tag_++;
  net::WireQuery query = route.query;
  query.client_tag = router_tag;
  retried_.fetch_add(1, std::memory_order_relaxed);
  link.inflight[router_tag] = std::move(route);
  QueueShardWrite(link, net::EncodeQueryFrame(query));
}

void Router::ExpireParked(Route& route, const ShardLink& link) {
  retry_parked_.fetch_sub(1, std::memory_order_relaxed);
  retry_exhausted_.fetch_add(1, std::memory_order_relaxed);
  // An expired retry is still a failover failure as far as observers are
  // concerned — the retry machinery defers failures, it never hides them.
  failed_over_inflight_.fetch_add(1, std::memory_order_relaxed);
  Status expired = Status::Unavailable(
      "shard " + std::to_string(link.index) +
      " did not recover within the retry window");
  expired.set_retry_after_ms(
      std::max<int64_t>(1, static_cast<int64_t>(link.backoff_ms)));
  Reply(route, net::WireResult::From(route.client_tag, expired));
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
