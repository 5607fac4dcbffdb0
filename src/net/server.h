// The TCP front door: non-blocking acceptor + wire-protocol connections on
// a single-threaded EventLoop, for a shard's UpaService and for the cluster
// router's clients alike.
//
// The server owns the sockets, the framing, the caps and the drain; one
// seam, a Handler, decides what a decoded query means. The service
// constructor fills it with the release path; cluster::Router fills it with
// its routing.
//
// Threading contract (DESIGN.md §8):
//   - the LOOP THREAD owns the listen socket and every connection: it
//     accepts, reads, frames, decodes, and writes. It never runs a query.
//   - the handler takes each decoded query on the loop thread and answers
//     it exactly once, with its result frame, through Answer() on the loop
//     thread. The service path hands the query to UpaService::SubmitAsync;
//     the release pipeline runs on the ENGINE POOL, and the completion
//     encodes the response on the pool thread and posts the bytes back to
//     the loop with RunInLoop — the only cross-thread entry point.
//
// Protection at the socket boundary:
//   - kMaxConnections: surplus accepts are closed immediately,
//   - kDefaultMaxFrameBytes (wire.h): an oversize length prefix is
//     rejected before any buffering commitment (kError frame, then close —
//     a corrupt length-prefixed stream cannot be resynchronised),
//   - max_pipelined_per_connection: surplus queries are answered with
//     RESOURCE_EXHAUSTED instead of queued without bound,
//   - write backpressure: a connection whose outbound buffer exceeds
//     kWriteBufferHighBytes stops being read until it drains (conn.h),
//   - idle timeout: a connection with no readable bytes, no queued
//     responses and nothing in flight for idle_timeout_ms is reaped,
//   - client disconnect mid-request: every in-flight request holds a
//     CancelToken the server trips on close, so the service aborts the
//     run at the next cooperative check and refunds the charge,
//   - per-request deadlines ride the wire (WireQuery::deadline_ms) into
//     QueryRequest::deadline_ms — the same CancelToken machinery.
//
// Fault sites (chaos suite): "net/accept", "net/read", "net/write" (in
// conn.h) and "net/decode" — an injected error behaves as a transport
// failure on that connection (closed, in-flight work cancelled); an abort
// action kills the process for crash-recovery tests.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "net/conn.h"
#include "net/event_loop.h"
#include "net/wire.h"
#include "service/service.h"

namespace upa::net {

/// The default cap on queries in flight per connection.
inline constexpr size_t kDefaultMaxPipelined = 64;

struct ServerConfig {
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port; read it back with port() after Start().
  uint16_t port = 0;
  /// In-flight queries per connection; surplus get RESOURCE_EXHAUSTED.
  size_t max_pipelined_per_connection = kDefaultMaxPipelined;
  /// Reap connections with no activity (bytes, responses, in-flight work)
  /// for this long. 0 disables.
  double idle_timeout_ms = 0.0;
};

/// Compiles a decoded wire query into the QueryInstance the service runs.
/// This is the only query-semantics hook the server has: the SQL example
/// wires parse→plan→MakePlanQuery here; tests wire toy count queries. Runs
/// on the loop thread — keep it cheap or move heavy compilation into the
/// QueryInstance's execute_phases.
using QueryCompiler =
    std::function<Result<core::QueryInstance>(const WireQuery&)>;

/// A query a client is waiting on: what Server::Answer takes back.
struct PendingQuery {
  uint64_t conn_id = 0;
  /// Server-side sequence number (client_tags may collide; these never do).
  uint64_t seq = 0;
  /// Tripped when the client disconnects or the server stops.
  std::shared_ptr<CancelToken> cancel;
};

/// Where the server sends what its clients ask for. Every member runs on
/// the loop thread.
struct Handler {
  /// Takes a decoded query, which it must answer exactly once, with its
  /// result frame, through Server::Answer on the loop thread — at once or
  /// later.
  std::function<void(PendingQuery, WireQuery)> query;
  /// The text a stats request gets ahead of the "== net ==" block.
  std::function<std::string()> stats;
  /// Runs every Server::kTickIntervalMs; may be empty.
  std::function<void()> tick;
};

class Server {
 public:
  /// Open-connection cap; surplus accepts are closed on arrival.
  static constexpr size_t kMaxConnections = 256;
  /// Period of the loop's tick: the idle scan, and the handler's tick (the
  /// router's dial, probe and parked-route deadlines).
  static constexpr double kTickIntervalMs = 5.0;

  /// Serves `handler`; whatever it captures must outlive the server.
  explicit Server(Handler handler, ServerConfig config = {});
  /// Serves `service`: compiles each query, runs it with
  /// UpaService::SubmitAsync and answers with the response. `service`
  /// must outlive the server.
  Server(service::UpaService* service, QueryCompiler compiler,
         ServerConfig config = {});
  /// Stops (gracefully draining) if still running.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind + listen + start the loop thread. kInvalidArgument for a bad
  /// config, kInternal for socket failures.
  Status Start();

  /// Graceful shutdown: stop accepting, wait (≤ kDrainTimeoutMs) for
  /// in-flight queries and response buffers, then close everything and
  /// join the loop thread. Idempotent.
  void Stop();

  /// The bound port (valid after a successful Start()).
  uint16_t port() const { return listener_.port; }

  /// The loop the server runs on. A handler may watch fds of its own on
  /// it, from the loop thread (or RunInLoop).
  EventLoop& loop() { return loop_; }

  /// Answers `pending` with its result `frame`. Loop thread only. Returns
  /// false, and drops the frame, when the client has already left.
  bool Answer(const PendingQuery& pending, std::string frame);

  struct Stats {
    uint64_t accepted = 0;
    uint64_t rejected_connections = 0;  // over kMaxConnections / failpoint
    uint64_t frames_in = 0;
    uint64_t frames_out = 0;
    uint64_t protocol_errors = 0;  // bad frames / payloads (incl. oversize)
    uint64_t disconnect_cancels = 0;  // in-flight tokens tripped on close
    uint64_t idle_closed = 0;
    uint64_t open_connections = 0;
  };
  Stats stats() const;

  /// Human-readable "== net ==" block appended to /stats responses.
  std::string StatsText() const;

 private:
  struct Connection {
    Connection(uint64_t id, EventLoop& loop, int fd)
        : id(id), io(loop, fd, /*backpressure=*/true) {}
    const uint64_t id;
    FramedConn io;
    /// In-flight request cancel handles, keyed by server-side sequence
    /// number (client_tags may collide; these never do).
    std::map<uint64_t, std::shared_ptr<CancelToken>> inflight;
  };

  /// Liveness bridge between pool-thread completions and the loop: the
  /// callback takes the lock, and posts only while `loop` is non-null.
  /// ~Server nulls it before tearing the loop down. pending_requests, the
  /// queries handed to the handler and not yet answered, lives here (not
  /// on the Server) because a completion that loses the drain race still
  /// decrements it after ~Server has finished — the shared_ptr keeps the
  /// Mailbox alive; nothing else would keep the Server alive.
  struct Mailbox {
    std::mutex mu;
    EventLoop* loop = nullptr;
    std::atomic<uint64_t> pending_requests{0};
  };

  // All of the below run on the loop thread.
  void HandleAccept();
  void HandleReadable(uint64_t conn_id);
  void ProcessFrames(Connection& conn);
  /// Applies the pipeline cap, then hands the query to the handler.
  void DispatchQuery(Connection& conn, WireQuery query);
  /// The service constructor's handler: compile, SubmitAsync, encode on
  /// the pool, post the bytes through the mailbox.
  void SubmitToService(service::UpaService& service,
                       const QueryCompiler& compiler, PendingQuery pending,
                       WireQuery query);
  /// Queues `bytes` and flushes. Like Flush, may close the connection.
  void QueueWrite(Connection& conn, std::string bytes);
  /// Closes the connection on a hard send failure or once its final
  /// flush completes; callers must not touch `conn` afterwards.
  void Flush(Connection& conn);
  /// Closes the socket and trips every in-flight request's cancel token.
  void CloseConnection(uint64_t conn_id);
  /// Queues an error frame and marks the connection close-after-flush.
  /// May destroy the Connection before returning (hard flush failure);
  /// callers must not touch `conn` afterwards.
  void AbortConnection(Connection& conn, const Status& error);
  void OnTick();

  Handler handler_;
  ServerConfig config_;

  EventLoop loop_;
  std::shared_ptr<Mailbox> mailbox_;
  std::thread loop_thread_;
  bool started_ = false;
  bool stopped_ = false;
  ListenSocket listener_;

  uint64_t next_conn_id_ = 1;  // loop thread only
  uint64_t next_req_seq_ = 1;  // loop thread only
  std::map<uint64_t, std::unique_ptr<Connection>> connections_;

  // Observability counters (mixed-thread readers). The in-flight request
  // count lives in Mailbox::pending_requests — see Mailbox.
  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> rejected_connections_{0};
  std::atomic<uint64_t> frames_in_{0};
  std::atomic<uint64_t> frames_out_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  std::atomic<uint64_t> disconnect_cancels_{0};
  std::atomic<uint64_t> idle_closed_{0};
  std::atomic<uint64_t> open_connections_{0};
};

}  // namespace upa::net
