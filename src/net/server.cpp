#include "net/server.h"

#include <unistd.h>

#include <sstream>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "common/hash.h"
#include "common/timer.h"

namespace upa::net {
namespace {

/// The "net/decode" fault site: an injected error aborts the connection
/// as if the frame had failed to decode.
Status DecodeFault() {
  UPA_FAILPOINT("net/decode");
  return Status::Ok();
}

}  // namespace

Server::Server(Handler handler, ServerConfig config)
    : handler_(std::move(handler)),
      config_(std::move(config)),
      mailbox_(std::make_shared<Mailbox>()) {
  mailbox_->loop = &loop_;
}

Server::Server(service::UpaService* service, QueryCompiler compiler,
               ServerConfig config)
    : Server(Handler{}, std::move(config)) {
  if (service == nullptr || !compiler) return;  // Start() refuses
  handler_.query = [this, service, compiler = std::move(compiler)](
                       PendingQuery pending, WireQuery query) {
    SubmitToService(*service, compiler, std::move(pending), std::move(query));
  };
  handler_.stats = [service] { return service->StatsReport(); };
}

Server::~Server() { Stop(); }

Status Server::Start() {
  if (started_) return Status::InvalidArgument("server already started");
  if (!handler_.query || !handler_.stats) {
    return Status::InvalidArgument("server requires a query handler");
  }
  if (config_.max_pipelined_per_connection == 0) {
    return Status::InvalidArgument(
        "max_pipelined_per_connection must be positive");
  }

  Result<ListenSocket> listener = Listen(config_.host, config_.port);
  UPA_RETURN_IF_ERROR(listener.status());
  listener_ = listener.value();

  started_ = true;
  loop_thread_ = std::thread([this] {
    Status registered = loop_.RegisterFd(
        listener_.fd, /*want_read=*/true, /*want_write=*/false,
        [this](bool readable, bool, bool) {
          if (readable) HandleAccept();
        });
    UPA_CHECK_MSG(registered.ok(), registered.ToString());
    loop_.SetTickHandler(kTickIntervalMs, [this] { OnTick(); });
    loop_.Run();
    // Loop exited: tear down every fd on the owning thread.
    for (auto& [id, conn] : connections_) {
      for (auto& [seq, token] : conn->inflight) {
        token->Cancel(StatusCode::kCancelled, "server shutting down");
      }
    }
    connections_.clear();
    loop_.UnregisterFd(listener_.fd);
    ::close(listener_.fd);
  });
  return Status::Ok();
}

void Server::Stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;

  // Graceful drain: quiet once no query is in flight and nothing is
  // buffered either way on any connection.
  Drain(
      loop_, listener_.fd, [this] { HandleAccept(); },
      [this] {
        std::vector<uint64_t> ids;
        ids.reserve(connections_.size());
        for (const auto& [id, conn] : connections_) ids.push_back(id);
        for (uint64_t id : ids) HandleReadable(id);
      },
      [this] {
        if (mailbox_->pending_requests.load(std::memory_order_acquire) != 0) {
          return false;
        }
        for (const auto& [id, conn] : connections_) {
          if (!conn->io.Idle()) return false;
        }
        return true;
      });

  // Cut the completion bridge: callbacks still running on pool threads see
  // a null loop and drop their response bytes instead of touching a loop
  // that is about to be destroyed.
  {
    std::lock_guard<std::mutex> lock(mailbox_->mu);
    mailbox_->loop = nullptr;
  }
  loop_.Stop();
  if (loop_thread_.joinable()) loop_thread_.join();
}

Server::Stats Server::stats() const {
  Stats s;
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.rejected_connections = rejected_connections_.load(std::memory_order_relaxed);
  s.frames_in = frames_in_.load(std::memory_order_relaxed);
  s.frames_out = frames_out_.load(std::memory_order_relaxed);
  s.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  s.disconnect_cancels = disconnect_cancels_.load(std::memory_order_relaxed);
  s.idle_closed = idle_closed_.load(std::memory_order_relaxed);
  s.open_connections = open_connections_.load(std::memory_order_relaxed);
  return s;
}

std::string Server::StatsText() const {
  Stats s = stats();
  std::ostringstream os;
  os << "== net ==\n"
     << "  port                 " << listener_.port << "\n"
     << "  open_connections     " << s.open_connections << "\n"
     << "  accepted             " << s.accepted << "\n"
     << "  rejected_connections " << s.rejected_connections << "\n"
     << "  frames_in            " << s.frames_in << "\n"
     << "  frames_out           " << s.frames_out << "\n"
     << "  protocol_errors      " << s.protocol_errors << "\n"
     << "  disconnect_cancels   " << s.disconnect_cancels << "\n"
     << "  idle_closed          " << s.idle_closed << "\n";
  return os.str();
}

void Server::HandleAccept() {
  size_t rejected = AcceptAll(
      listener_.fd, connections_.size(), kMaxConnections, [this](int fd) {
        const uint64_t id = next_conn_id_++;
        auto conn = std::make_unique<Connection>(id, loop_, fd);
        Status watched = conn->io.Watch(
            /*want_write=*/false,
            [this, id](bool readable, bool writable, bool error) {
              auto it = connections_.find(id);
              if (it == connections_.end()) return;
              if (error) {
                CloseConnection(id);
                return;
              }
              if (writable) Flush(*it->second);
              if (readable) HandleReadable(id);
            });
        if (!watched.ok()) return false;
        connections_[id] = std::move(conn);
        accepted_.fetch_add(1, std::memory_order_relaxed);
        open_connections_.store(connections_.size(),
                                std::memory_order_relaxed);
        return true;
      });
  rejected_connections_.fetch_add(rejected, std::memory_order_relaxed);
}

void Server::HandleReadable(uint64_t conn_id) {
  auto it = connections_.find(conn_id);
  if (it == connections_.end()) return;
  Connection& conn = *it->second;
  Status read = conn.io.Read([&] {
    ProcessFrames(conn);
    return connections_.count(conn_id) != 0;  // frames may close it
  });
  if (!read.ok()) CloseConnection(conn_id);
}

void Server::AbortConnection(Connection& conn, const Status& error) {
  protocol_errors_.fetch_add(1, std::memory_order_relaxed);
  // Marked BEFORE the write is queued: QueueWrite flushes inline and
  // closes the connection on a hard send() error (or the net/write
  // failpoint). With the mark already set, a clean full flush also closes
  // — no second touch of `conn` is needed, and callers must not make one.
  conn.io.CloseAfterFlush();
  QueueWrite(conn, EncodeErrorFrame(error));
}

void Server::ProcessFrames(Connection& conn) {
  uint64_t conn_id = conn.id;
  for (;;) {
    Frame frame;
    Status error = Status::Ok();
    FrameAssembler::Outcome outcome = conn.io.NextFrame(&frame, &error);
    if (outcome == FrameAssembler::Outcome::kNeedMore) return;
    if (outcome == FrameAssembler::Outcome::kError) {
      // The stream cannot be resynchronised: report once, flush, close.
      AbortConnection(conn, error);
      return;
    }
    frames_in_.fetch_add(1, std::memory_order_relaxed);

    if (Status injected = DecodeFault(); !injected.ok()) {
      AbortConnection(conn, injected);
      return;
    }

    switch (frame.type) {
      case FrameType::kQueryRequest: {
        WireQuery query;
        Status decoded = DecodeQueryPayload(frame.payload, &query);
        if (!decoded.ok()) {
          AbortConnection(conn, decoded);
          return;
        }
        DispatchQuery(conn, std::move(query));
        break;
      }
      case FrameType::kStatsRequest: {
        std::string text = handler_.stats();
        text += StatsText();
        QueueWrite(conn, EncodeStatsResponseFrame(text));
        break;
      }
      default: {
        // A client has no business sending response/error frames.
        AbortConnection(conn, Status::InvalidArgument(
                                  "unexpected frame type from client"));
        return;
      }
    }
    // Dispatch/stats may have queued writes that closed the connection via
    // a failed flush.
    if (connections_.find(conn_id) == connections_.end()) return;
  }
}

void Server::DispatchQuery(Connection& conn, WireQuery query) {
  if (conn.inflight.size() >= config_.max_pipelined_per_connection) {
    Status full = Status::ResourceExhausted(
        "too many pipelined requests on this connection");
    QueueWrite(conn,
               EncodeResultFrame(WireResult::From(query.client_tag, full)));
    return;
  }
  PendingQuery pending{conn.id, next_req_seq_++,
                       std::make_shared<CancelToken>()};
  conn.inflight[pending.seq] = pending.cancel;
  mailbox_->pending_requests.fetch_add(1, std::memory_order_acq_rel);
  handler_.query(std::move(pending), std::move(query));
}

void Server::SubmitToService(service::UpaService& service,
                             const QueryCompiler& compiler,
                             PendingQuery pending, WireQuery query) {
  const uint64_t client_tag = query.client_tag;
  Result<core::QueryInstance> compiled = compiler(query);
  if (!compiled.ok()) {
    Answer(pending,
           EncodeResultFrame(WireResult::From(client_tag, compiled.status())));
    return;
  }

  service::QueryRequest request;
  request.tenant = query.tenant;
  request.dataset_id = query.dataset_id;
  request.query = std::move(compiled).value();
  request.epsilon = query.epsilon;
  request.seed = query.seed;
  // The server picks the sensitivity-cache key; a client-chosen key could
  // pin another query shape's range and sensitivity to this query.
  request.fingerprint = Fnv1a(query.sql);
  request.deadline_ms = query.deadline_ms;
  request.cancel = pending.cancel;
  request.client_nonce = query.client_nonce;
  request.client_seq = query.client_seq;

  // The completion runs on an engine pool thread (or inline for immediate
  // rejections). It encodes there — keeping serialization off the loop —
  // and posts finished bytes through the mailbox.
  auto mailbox = mailbox_;
  service.SubmitAsync(
      std::move(request),
      [this, mailbox, pending = std::move(pending),
       client_tag](Result<service::QueryResponse> outcome) mutable {
        std::string bytes = EncodeResultFrame(
            WireResult::From(client_tag, std::move(outcome)));
        std::lock_guard<std::mutex> lock(mailbox->mu);
        if (mailbox->loop == nullptr) {
          // Server torn down; the connection is gone anyway. Only the
          // shared Mailbox is touched here — `this` may already be dead.
          mailbox->pending_requests.fetch_sub(1, std::memory_order_acq_rel);
          return;
        }
        mailbox->loop->RunInLoop([this, pending = std::move(pending),
                                  bytes = std::move(bytes)]() mutable {
          Answer(pending, std::move(bytes));
        });
      });
}

bool Server::Answer(const PendingQuery& pending, std::string frame) {
  mailbox_->pending_requests.fetch_sub(1, std::memory_order_acq_rel);
  auto it = connections_.find(pending.conn_id);
  if (it == connections_.end()) return false;  // client went away
  Connection& conn = *it->second;
  conn.inflight.erase(pending.seq);
  QueueWrite(conn, std::move(frame));
  return true;
}

void Server::QueueWrite(Connection& conn, std::string bytes) {
  frames_out_.fetch_add(1, std::memory_order_relaxed);
  conn.io.Append(std::move(bytes));
  Flush(conn);
}

void Server::Flush(Connection& conn) {
  Status flushed = conn.io.Flush();
  if (!flushed.ok() || conn.io.Finished()) CloseConnection(conn.id);
}

void Server::CloseConnection(uint64_t conn_id) {
  auto it = connections_.find(conn_id);
  if (it == connections_.end()) return;
  for (auto& [seq, token] : it->second->inflight) {
    disconnect_cancels_.fetch_add(1, std::memory_order_relaxed);
    // The service observes the trip at its next cooperative check and
    // refunds the charge (nothing was released). The handler still
    // answers; Answer drops it — the connection is gone.
    token->Cancel(StatusCode::kCancelled, "client disconnected");
  }
  connections_.erase(it);  // closes the socket
  open_connections_.store(connections_.size(), std::memory_order_relaxed);
}

void Server::OnTick() {
  if (handler_.tick) handler_.tick();
  if (config_.idle_timeout_ms <= 0.0) return;
  int64_t now = NowNanos();
  int64_t budget_ns = static_cast<int64_t>(config_.idle_timeout_ms * 1e6);
  std::vector<uint64_t> victims;
  for (const auto& [id, conn] : connections_) {
    // Only in-flight queries exempt a connection from reaping: no bytes
    // flow while the engine computes, so last_io_ns goes stale through no
    // fault of the client. Buffered writes and partial frames do NOT
    // count as activity — a peer that stops reading its responses (or
    // drips a slow-loris request) makes no forward progress, and
    // last_io_ns already advances on every successful recv/send.
    if (!conn->inflight.empty()) continue;
    if (now - conn->io.last_io_ns() >= budget_ns) victims.push_back(id);
  }
  for (uint64_t id : victims) {
    idle_closed_.fetch_add(1, std::memory_order_relaxed);
    CloseConnection(id);
  }
}

}  // namespace upa::net
