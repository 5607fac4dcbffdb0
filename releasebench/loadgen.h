// Single-threaded load generator over raw non-blocking sockets.
//
// It speaks the wire protocol directly (net/wire.h: EncodeQueryFrame,
// FrameAssembler, DecodeResultPayload) instead of using net::Client,
// because an Await timeout poisons a Client's connection: an open-loop
// generator must keep sending on schedule whatever the replies do.
//
// Every request row carries its connection; the generator stamps the time
// its frame finished writing (`sent_ns`) and the time its reply was
// decoded (`done_ns`), and stores the decoded WireResult.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "common/status.h"
#include "workload.h"

namespace upa::releasebench {

class LoadGen {
 public:
  /// Opens `conns` TCP connections to 127.0.0.1:`port`.
  static Result<std::unique_ptr<LoadGen>> Connect(uint16_t port,
                                                  size_t conns);
  ~LoadGen();

  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  /// Open loop: sends request `order[i]` at its `due_at_ns` (ascending)
  /// whatever the replies do, then waits until every reply is decoded.
  /// Fails on a transport or protocol error, or when replies are still
  /// missing `drain_seconds` after the last send.
  Status RunOpen(RequestTable& table, const std::vector<size_t>& order,
                 double drain_seconds);

  /// Closed loop: each connection keeps up to `window` requests of its
  /// queue outstanding, sending the next one when a reply arrives, until
  /// `end_ns` (or its queue runs dry); then drains what is outstanding.
  /// Sent requests leave `queues`, so a later call continues the pool.
  /// A single queue is shared by every connection instead: whichever
  /// connection has a free slot sends its head (and the row's `conn` is
  /// set to that connection).
  Status RunClosed(RequestTable& table,
                   std::vector<std::deque<size_t>>& queues, size_t window,
                   int64_t end_ns, double drain_seconds);

 private:
  struct Conn;
  explicit LoadGen(std::vector<std::unique_ptr<Conn>> conns);

  void Send(RequestTable& table, size_t index);
  Status Flush(RequestTable& table);
  /// Waits up to `timeout_ns` for socket events, then reads and decodes
  /// every complete reply; `on_reply` gets each answered row index.
  template <typename OnReply>
  Status Poll(RequestTable& table, int64_t timeout_ns, OnReply&& on_reply);

  std::vector<std::unique_ptr<Conn>> conns_;
  size_t outstanding_ = 0;
};

}  // namespace upa::releasebench
