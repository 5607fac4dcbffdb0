// The socket core under net::Server and the cluster router's shard links:
// listening, accepting, dialling, and non-blocking framed connections on
// one EventLoop.
//
// It owns the policy every framed connection shares:
//   - accept: non-blocking sockets with TCP_NODELAY, under a cap on open
//     connections;
//   - read: a recv loop into the connection's FrameAssembler that hands
//     every chunk to the owner and stops as soon as the owner pauses or
//     closes the connection;
//   - write: partial sends from a write buffer, write interest while
//     bytes remain, reads paused above kWriteBufferHighBytes until the
//     buffer fully drains, and no reads once the connection is marked to
//     close after its final flush;
//   - drain: an owner's Stop() stops accepting, reads what the kernel
//     already holds, then waits for the owner to report quiet.
// Owners keep what frames mean, their caps, and when to give up on a peer.
//
// Fault sites: "net/accept", "net/read" and "net/write". An injected error
// behaves as a transport failure on that connection.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "common/status.h"
#include "net/event_loop.h"
#include "net/wire.h"

namespace upa::net {

/// Unsent bytes above which an accepted connection stops being read until
/// its write buffer fully drains. Full drain, not a low watermark, keeps
/// the policy simple and observable.
inline constexpr size_t kWriteBufferHighBytes = 4u << 20;

/// How long Drain() waits for in-flight work and buffered responses.
inline constexpr int64_t kDrainTimeoutMs = 5000;

struct ListenSocket {
  int fd = -1;
  /// The bound port (what port 0 resolved to).
  uint16_t port = 0;
};

/// Binds host:port (a numeric IPv4 address; port 0 is ephemeral) and
/// listens on a non-blocking socket, which the caller then owns.
Result<ListenSocket> Listen(const std::string& host, uint16_t port);

/// Accepts every handshake the kernel has completed on `listen_fd`. Each
/// socket is made non-blocking with TCP_NODELAY and handed to `adopt`,
/// which owns it from then on (a refused one too) and returns whether it
/// kept it. With `open` connections already open, a socket beyond
/// `max_open`, or one that meets the "net/accept" fault, is closed on
/// arrival. Returns how many sockets were turned away, `adopt`'s refusals
/// included.
size_t AcceptAll(int listen_fd, size_t open, size_t max_open,
                 const std::function<bool(int fd)>& adopt);

/// Creates a non-blocking TCP socket with TCP_NODELAY and starts a connect
/// to host:port (a numeric IPv4 address). Returns the fd with the connect
/// either established or in progress; on failure no fd is leaked.
Result<int> StartConnect(const std::string& host, uint16_t port);

/// After `fd` (from StartConnect) polls writable: reports whether the
/// handshake succeeded (SO_ERROR). Does not close the fd on failure — the
/// caller owns it either way.
Status FinishConnect(int fd);

/// One non-blocking framed TCP connection on an EventLoop: its fd, the
/// FrameAssembler for inbound bytes and the buffer of unsent outbound
/// bytes. Loop thread only. An owner holds one per peer and keeps its own
/// per-connection state beside it.
class FramedConn {
 public:
  /// Takes ownership of the non-blocking `fd`. `backpressure` pauses
  /// reads above kWriteBufferHighBytes unsent: right for an accepted peer
  /// that stops reading its responses, wrong for a dialled link, whose
  /// responses are what frees the peer to read more.
  FramedConn(EventLoop& loop, int fd, bool backpressure);
  /// Unregisters the fd from the loop and closes it.
  ~FramedConn();

  FramedConn(const FramedConn&) = delete;
  FramedConn& operator=(const FramedConn&) = delete;

  /// Registers the fd for reads, and for writes too when `want_write`
  /// (while a dial completes); `on_event` receives its readiness.
  Status Watch(bool want_write, EventLoop::FdCallback on_event);

  int fd() const { return fd_; }
  /// The next complete frame already read (see FrameAssembler::Next).
  FrameAssembler::Outcome NextFrame(Frame* frame, Status* error) {
    return assembler_.Next(frame, error);
  }
  size_t unsent_bytes() const { return write_buffer_.size() - write_offset_; }
  /// Nothing buffered either way: no partial inbound frame, nothing unsent.
  bool Idle() const {
    return unsent_bytes() == 0 && assembler_.buffered_bytes() == 0;
  }
  /// NowNanos() of the last byte received or sent (or of construction).
  int64_t last_io_ns() const { return last_io_ns_; }

  /// Reads what the kernel holds, calling `on_bytes` after each chunk
  /// reaches the assembler. Returns OK once the socket would block, or as
  /// soon as the owner has paused reads, marked the connection
  /// close-after-flush, or closed it; `on_bytes` returns false for the
  /// last, and the connection is not touched again. An error means EOF, a
  /// recv failure or an injected "net/read" fault: the owner closes.
  Status Read(const std::function<bool()>& on_bytes);

  /// Queues `bytes` behind what is already unsent; Flush() sends them.
  void Append(std::string bytes);
  /// Sends what the kernel takes, then sets the fd's interest: writes
  /// while bytes remain; reads unless paused (see `backpressure`) or
  /// closing. An error means a send failure or an injected "net/write"
  /// fault: the owner closes.
  Status Flush();

  /// Stops reading, and lets Finished() report the end once everything
  /// queued is sent: after an error frame, since a corrupt stream cannot
  /// be resynchronised.
  void CloseAfterFlush() { close_after_flush_ = true; }
  /// A close-after-flush connection has sent its last byte; the owner
  /// closes it.
  bool Finished() const { return close_after_flush_ && unsent_bytes() == 0; }

 private:
  EventLoop& loop_;
  const int fd_;
  const bool backpressure_;
  bool watched_ = false;
  bool reads_paused_ = false;
  bool close_after_flush_ = false;
  int64_t last_io_ns_;
  FrameAssembler assembler_;
  std::string write_buffer_;
  size_t write_offset_ = 0;
};

/// The graceful drain behind an owner's Stop(), called off the loop
/// thread. On the loop thread it runs `accept` (handshakes the kernel
/// already completed still get a connection) and unregisters
/// `listen_fd`; then, until `quiet` returns true or kDrainTimeoutMs
/// passes, it runs `read_all` and asks `quiet`. `read_all` reads what the
/// kernel already holds on every connection: posted closures run before
/// fd events, so a request sent just before Stop() would otherwise be
/// invisible to `quiet`.
void Drain(EventLoop& loop, int listen_fd, std::function<void()> accept,
           std::function<void()> read_all, std::function<bool()> quiet);

}  // namespace upa::net
