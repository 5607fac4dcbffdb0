// Blocking client for the UPA wire protocol.
//
// One Client is one TCP connection. Query() writes a kQueryRequest frame
// and reads frames until the response carrying the request's client_tag
// arrives — responses may complete out of submission order, so earlier
// arrivals for other tags are parked and handed to their waiters. A single
// Client is NOT thread-safe; the load generator opens one per worker.
//
// The raw SendBytes/ReadFrame escape hatch exists for the protocol torture
// suites, which need to write deliberately corrupt bytes and observe the
// server's kError frame + close.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "net/wire.h"

namespace upa::net {

class Client {
 public:
  /// Connect to host:port; fails with kDeadlineExceeded when the connect
  /// does not complete within timeout_ms. Every failure path closes the
  /// socket — a timed-out dial leaks no fd.
  static Result<std::unique_ptr<Client>> Connect(const std::string& host,
                                                 uint16_t port,
                                                 int64_t timeout_ms = 5000);
  /// Wraps an already-connected non-blocking socket (tests' scripted peers).
  /// Takes ownership of `fd`.
  static std::unique_ptr<Client> FromConnectedFd(int fd);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Send one query and block for ITS response (matched by client_tag; a
  /// tag of 0 is replaced with an auto-assigned unique one). A transport
  /// or timeout failure poisons the connection. A server kError frame is
  /// returned as its Status (the server closes after sending one).
  Result<WireResult> Query(WireQuery query, int64_t timeout_ms = 30000);

  /// Fire a query without waiting; pair with Await(tag). Returns the tag.
  /// A tag already in flight is rejected (kInvalidArgument) — a duplicate
  /// would make the response-to-request matching ambiguous.
  /// A query with client_nonce == 0 is stamped with this connection's
  /// idempotency nonce and the next sequence number, so every request is
  /// retry-safe by default; to retry a request yourself (e.g. across
  /// connections), carry its (client_nonce, client_seq) over explicitly —
  /// the service replays the original response for a completed key.
  Result<uint64_t> Send(WireQuery query);

  /// This connection's idempotency nonce (pair with a seq for manual
  /// cross-connection retries).
  uint64_t client_nonce() const { return client_nonce_; }
  /// Block for the response to a previously Send()t tag. Awaiting a tag
  /// that was never sent (or already delivered) fails immediately.
  Result<WireResult> Await(uint64_t tag, int64_t timeout_ms = 30000);

  /// The server's "/stats" text dump (service report + net counters).
  Result<std::string> Stats(int64_t timeout_ms = 5000);

  /// Raw escape hatches for protocol-torture tests.
  Status SendBytes(std::string_view bytes);
  Result<Frame> ReadFrame(int64_t timeout_ms = 5000);

 private:
  explicit Client(int fd) : fd_(fd) {}

  /// Read until the assembler yields a frame (or timeout/transport error).
  Result<Frame> NextFrame(int64_t deadline_ns);

  /// Ok when `tag` has a waiter; otherwise poisons the connection (a
  /// response no request is waiting for means the stream is stale).
  Status AdmitResponseTag(uint64_t tag);

  int fd_;
  uint64_t next_tag_ = 1;
  /// Process-unique idempotency nonce stamped (with next_seq_) on queries
  /// that don't carry their own key.
  uint64_t client_nonce_ = 0;
  uint64_t next_seq_ = 1;
  FrameAssembler assembler_;
  /// Tags sent but not yet delivered to a waiter. A response whose tag is
  /// not in this set poisons the connection: it can only be a stale reply
  /// for a request some caller already gave up on (or a server bug), and
  /// delivering it to the next Await would hand the wrong result over.
  std::set<uint64_t> inflight_;
  /// Responses that arrived while waiting for a different in-flight tag.
  std::map<uint64_t, WireResult> parked_;
  /// A transport failure (including a timeout mid-wait: the reply may land
  /// later, desynchronized from its request) is terminal for the
  /// connection; latched here so every later call fails the same way
  /// instead of reading garbage.
  Status broken_ = Status::Ok();
};

}  // namespace upa::net
