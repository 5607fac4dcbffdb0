// Single-threaded epoll event loop for the network front door.
//
// One thread owns every registered fd and all per-connection state; the
// only cross-thread entry point is RunInLoop(), which enqueues a closure
// and wakes the loop through a self-pipe. This is the threading contract
// the server relies on (DESIGN.md §8): the loop does I/O and bookkeeping
// only — query work runs on the engine pool and re-enters through
// RunInLoop to write responses.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <vector>

#include "common/status.h"

namespace upa::net {

class EventLoop {
 public:
  /// Per-fd readiness callback. Runs on the loop thread. May unregister
  /// its own fd (close) — the loop tolerates callbacks mutating the
  /// registration table mid-dispatch. `error` is EPOLLERR/EPOLLHUP; the
  /// callback decides whether that means close.
  using FdCallback = std::function<void(bool readable, bool writable,
                                        bool error)>;

  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Register `fd` for readiness callbacks. Loop thread only (use
  /// RunInLoop from outside).
  Status RegisterFd(int fd, bool want_read, bool want_write, FdCallback cb);
  /// Change interest set of a registered fd. Loop thread only.
  Status UpdateFd(int fd, bool want_read, bool want_write);
  /// Drop a registration. Does NOT close the fd. Loop thread only.
  void UnregisterFd(int fd);

  /// Enqueue `fn` to run on the loop thread; wakes the loop if blocked in
  /// epoll_wait. Thread-safe. Functions enqueued after Stop() (or after the
  /// loop exits) are destroyed unrun.
  void RunInLoop(std::function<void()> fn);

  /// Periodic callback on the loop thread (connection timeout scans).
  /// interval_ms <= 0 disables. Loop thread only (or before Run()).
  void SetTickHandler(double interval_ms, std::function<void()> on_tick);

  /// Run until Stop(). Must be called from exactly one thread, which
  /// becomes the loop thread.
  void Run();

  /// Ask the loop to exit after the current iteration. Thread-safe.
  void Stop();

 private:
  Status Control(int op, int fd, bool want_read, bool want_write);
  void DrainWakeups();
  int NextTimeoutMs() const;

  int epoll_fd_ = -1;
  std::map<int, FdCallback> callbacks_;
  /// fds unregistered during the current dispatch round; their remaining
  /// queued events are skipped so a reused fd number can't receive the old
  /// socket's readiness. Cleared at the top of each loop iteration.
  std::vector<int> dead_this_round_;

  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;

  std::mutex pending_mu_;
  std::vector<std::function<void()>> pending_;
  bool stopped_ = false;  // guarded by pending_mu_

  double tick_interval_ms_ = 0.0;
  std::function<void()> on_tick_;
  int64_t next_tick_ns_ = 0;
};

}  // namespace upa::net
