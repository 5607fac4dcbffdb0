#include "net/event_loop.h"

#include <errno.h>
#include <fcntl.h>
#include <string.h>
#include <sys/epoll.h>
#include <unistd.h>

#include <algorithm>

#include "common/timer.h"

namespace upa::net {

EventLoop::EventLoop() : epoll_fd_(::epoll_create1(EPOLL_CLOEXEC)) {
  UPA_CHECK_MSG(epoll_fd_ >= 0, "event loop epoll_create1");
  int fds[2];
  UPA_CHECK_MSG(::pipe(fds) == 0, "event loop wake pipe");
  wake_read_fd_ = fds[0];
  wake_write_fd_ = fds[1];
  ::fcntl(wake_read_fd_, F_SETFL, O_NONBLOCK);
  ::fcntl(wake_write_fd_, F_SETFL, O_NONBLOCK);
  UPA_CHECK(Control(EPOLL_CTL_ADD, wake_read_fd_, /*want_read=*/true,
                    /*want_write=*/false)
                .ok());
}

EventLoop::~EventLoop() {
  ::close(wake_read_fd_);
  ::close(wake_write_fd_);
  ::close(epoll_fd_);
}

Status EventLoop::Control(int op, int fd, bool want_read, bool want_write) {
  epoll_event ev{};
  ev.data.fd = fd;
  if (want_read) ev.events |= EPOLLIN;
  if (want_write) ev.events |= EPOLLOUT;
  if (::epoll_ctl(epoll_fd_, op, fd, &ev) != 0) {
    return Status::Internal(std::string("epoll_ctl: ") + ::strerror(errno));
  }
  return Status::Ok();
}

Status EventLoop::RegisterFd(int fd, bool want_read, bool want_write,
                             FdCallback cb) {
  UPA_RETURN_IF_ERROR(Control(EPOLL_CTL_ADD, fd, want_read, want_write));
  callbacks_[fd] = std::move(cb);
  return Status::Ok();
}

Status EventLoop::UpdateFd(int fd, bool want_read, bool want_write) {
  return Control(EPOLL_CTL_MOD, fd, want_read, want_write);
}

void EventLoop::UnregisterFd(int fd) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  callbacks_.erase(fd);
  // Poison any readiness events for this fd still queued in the current
  // dispatch round: a callback that follows may accept a new connection
  // whose socket reuses this fd number, and the stale events (notably a
  // stale `error` flag) must not reach the fresh registration.
  dead_this_round_.push_back(fd);
}

void EventLoop::RunInLoop(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    if (stopped_) return;  // loop gone; drop the closure
    pending_.push_back(std::move(fn));
  }
  // Wake the loop; a full pipe already guarantees a pending wakeup.
  char byte = 1;
  ssize_t ignored = ::write(wake_write_fd_, &byte, 1);
  (void)ignored;
}

void EventLoop::SetTickHandler(double interval_ms,
                               std::function<void()> on_tick) {
  tick_interval_ms_ = interval_ms;
  on_tick_ = std::move(on_tick);
  next_tick_ns_ =
      NowNanos() + static_cast<int64_t>(tick_interval_ms_ * 1e6);
}

void EventLoop::DrainWakeups() {
  char buf[256];
  while (::read(wake_read_fd_, buf, sizeof(buf)) > 0) {
  }
}

int EventLoop::NextTimeoutMs() const {
  if (tick_interval_ms_ <= 0.0 || !on_tick_) return -1;
  int64_t delta_ns = next_tick_ns_ - NowNanos();
  if (delta_ns <= 0) return 0;
  // Round up so a near-due tick doesn't spin at timeout 0.
  return static_cast<int>((delta_ns + 999999) / 1000000);
}

void EventLoop::Run() {
  epoll_event events[64];
  std::vector<std::function<void()>> to_run;
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(pending_mu_);
      if (stopped_) break;
    }

    int ready = ::epoll_wait(epoll_fd_, events, 64, NextTimeoutMs());
    if (ready < 0) {
      UPA_CHECK_MSG(errno == EINTR,
                    std::string("epoll_wait: ") + ::strerror(errno));
      ready = 0;
    }

    // Posted closures first: they may register/close fds the readiness
    // list below refers to (the callback lookup tolerates removals).
    dead_this_round_.clear();
    to_run.clear();
    {
      std::lock_guard<std::mutex> lock(pending_mu_);
      to_run.swap(pending_);
    }
    for (auto& fn : to_run) fn();

    for (int i = 0; i < ready; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_read_fd_) {
        DrainWakeups();
        continue;
      }
      // Skip fds unregistered earlier in this round even if the number was
      // re-registered since: the event belongs to the OLD socket, and a
      // fresh connection reusing the fd must not inherit it (the new fd's
      // own readiness arrives level-triggered on the next epoll_wait).
      if (std::find(dead_this_round_.begin(), dead_this_round_.end(), fd) !=
          dead_this_round_.end()) {
        continue;
      }
      // Re-look-up per event: an earlier callback may have closed this fd.
      auto it = callbacks_.find(fd);
      if (it == callbacks_.end()) continue;
      // Copy: the callback may unregister itself, invalidating `it`.
      FdCallback cb = it->second;
      cb((events[i].events & EPOLLIN) != 0, (events[i].events & EPOLLOUT) != 0,
         (events[i].events & (EPOLLERR | EPOLLHUP)) != 0);
    }

    if (tick_interval_ms_ > 0.0 && on_tick_ && NowNanos() >= next_tick_ns_) {
      next_tick_ns_ =
          NowNanos() + static_cast<int64_t>(tick_interval_ms_ * 1e6);
      on_tick_();
    }
  }
}

void EventLoop::Stop() {
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    stopped_ = true;
    pending_.clear();
  }
  char byte = 1;
  ssize_t ignored = ::write(wake_write_fd_, &byte, 1);
  (void)ignored;
}

}  // namespace upa::net
