#include "net/conn.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <utility>

#include "common/failpoint.h"
#include "common/timer.h"

namespace upa::net {
namespace {

Status ErrnoStatus(const char* what) {
  return Status::Internal(std::string(what) + ": " + ::strerror(errno));
}

Status SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return ErrnoStatus("fcntl(O_NONBLOCK)");
  }
  return Status::Ok();
}

void SetNoDelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

Result<sockaddr_in> ParseAddress(const std::string& host, uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("unparseable host '" + host + "'");
  }
  return addr;
}

/// The "net/accept" fault site: an injected error turns the socket away.
Status AcceptFault() {
  UPA_FAILPOINT("net/accept");
  return Status::Ok();
}

}  // namespace

Result<ListenSocket> Listen(const std::string& host, uint16_t port) {
  Result<sockaddr_in> addr = ParseAddress(host, port);
  UPA_RETURN_IF_ERROR(addr.status());
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return ErrnoStatus("socket");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  Status st = Status::Ok();
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr.value()),
             sizeof(sockaddr_in)) != 0) {
    st = ErrnoStatus("bind");
  } else if (::listen(fd, 128) != 0) {
    st = ErrnoStatus("listen");
  } else if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound),
                           &bound_len) != 0) {
    st = ErrnoStatus("getsockname");
  } else {
    st = SetNonBlocking(fd);
  }
  if (!st.ok()) {
    ::close(fd);
    return st;
  }
  return ListenSocket{fd, ntohs(bound.sin_port)};
}

size_t AcceptAll(int listen_fd, size_t open, size_t max_open,
                 const std::function<bool(int fd)>& adopt) {
  size_t rejected = 0;
  for (;;) {
    sockaddr_in peer{};
    socklen_t peer_len = sizeof(peer);
    int fd = ::accept(listen_fd, reinterpret_cast<sockaddr*>(&peer),
                      &peer_len);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // EAGAIN: nothing left. Anything else is transient; the listener
      // stays registered and the next readiness retries.
      return rejected;
    }
    if (!AcceptFault().ok() || open >= max_open ||
        !SetNonBlocking(fd).ok()) {
      ++rejected;
      ::close(fd);
      continue;
    }
    SetNoDelay(fd);
    if (adopt(fd)) {
      ++open;
    } else {
      ++rejected;
    }
  }
}

Result<int> StartConnect(const std::string& host, uint16_t port) {
  Result<sockaddr_in> addr = ParseAddress(host, port);
  UPA_RETURN_IF_ERROR(addr.status());
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return ErrnoStatus("socket");
  if (Status st = SetNonBlocking(fd); !st.ok()) {
    ::close(fd);
    return st;
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr.value()),
                sizeof(sockaddr_in)) != 0 &&
      errno != EINPROGRESS) {
    Status st = ErrnoStatus("connect");
    ::close(fd);
    return st;
  }
  SetNoDelay(fd);
  return fd;
}

Status FinishConnect(int fd) {
  int err = 0;
  socklen_t err_len = sizeof(err);
  if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &err_len) != 0) {
    return ErrnoStatus("getsockopt(SO_ERROR)");
  }
  if (err != 0) {
    return Status::Internal(std::string("connect: ") + ::strerror(err));
  }
  return Status::Ok();
}

FramedConn::FramedConn(EventLoop& loop, int fd, bool backpressure)
    : loop_(loop),
      fd_(fd),
      backpressure_(backpressure),
      last_io_ns_(NowNanos()) {}

FramedConn::~FramedConn() {
  if (watched_) loop_.UnregisterFd(fd_);
  ::close(fd_);
}

Status FramedConn::Watch(bool want_write, EventLoop::FdCallback on_event) {
  UPA_RETURN_IF_ERROR(loop_.RegisterFd(fd_, /*want_read=*/true, want_write,
                                       std::move(on_event)));
  watched_ = true;
  return Status::Ok();
}

Status FramedConn::Read(const std::function<bool()>& on_bytes) {
  char buf[64 * 1024];
  while (!reads_paused_ && !close_after_flush_) {
    UPA_FAILPOINT("net/read");
    ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      last_io_ns_ = NowNanos();
      assembler_.Feed(std::string_view(buf, static_cast<size_t>(n)));
      if (!on_bytes()) return Status::Ok();  // closed: `this` is gone
      continue;
    }
    if (n == 0) return Status::Unavailable("peer closed the connection");
    if (errno == EAGAIN || errno == EWOULDBLOCK) return Status::Ok();
    if (errno != EINTR) return ErrnoStatus("recv");
  }
  return Status::Ok();
}

void FramedConn::Append(std::string bytes) {
  if (write_buffer_.empty()) {
    write_buffer_ = std::move(bytes);
    write_offset_ = 0;
  } else {
    write_buffer_ += bytes;
  }
}

Status FramedConn::Flush() {
  while (write_offset_ < write_buffer_.size()) {
    UPA_FAILPOINT("net/write");
    ssize_t n = ::send(fd_, write_buffer_.data() + write_offset_,
                       write_buffer_.size() - write_offset_, MSG_NOSIGNAL);
    if (n > 0) {
      write_offset_ += static_cast<size_t>(n);
      last_io_ns_ = NowNanos();
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    return ErrnoStatus("send");
  }
  if (write_offset_ == write_buffer_.size()) {
    write_buffer_.clear();
    write_offset_ = 0;
  }
  if (Finished()) return Status::Ok();  // the owner closes it now
  const size_t unsent = unsent_bytes();
  if (backpressure_ && unsent > kWriteBufferHighBytes) {
    reads_paused_ = true;
  } else if (unsent == 0) {
    reads_paused_ = false;
  }
  (void)loop_.UpdateFd(fd_, !reads_paused_ && !close_after_flush_,
                       /*want_write=*/unsent > 0);
  return Status::Ok();
}

void Drain(EventLoop& loop, int listen_fd, std::function<void()> accept,
           std::function<void()> read_all, std::function<bool()> quiet) {
  loop.RunInLoop([&loop, listen_fd, accept = std::move(accept)] {
    accept();
    loop.UnregisterFd(listen_fd);
  });
  const int64_t deadline_ns = NowNanos() + kDrainTimeoutMs * 1'000'000;
  while (NowNanos() < deadline_ns) {
    auto probe = std::make_shared<std::promise<bool>>();
    std::future<bool> answer = probe->get_future();
    loop.RunInLoop([probe, read_all, quiet] {
      read_all();
      probe->set_value(quiet());
    });
    if (answer.wait_until(std::chrono::steady_clock::now() +
                          std::chrono::nanoseconds(deadline_ns -
                                                   NowNanos())) !=
        std::future_status::ready) {
      return;  // loop wedged past the deadline; the owner stops anyway
    }
    if (answer.get()) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

}  // namespace upa::net
