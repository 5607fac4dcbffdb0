#include "loadgen.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <ctime>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <string>
#include <utility>

namespace upa::releasebench {

struct LoadGen::Conn {
  int fd = -1;
  net::FrameAssembler assembler;
  std::string out;
  size_t out_off = 0;
  /// (end offset in `out`, request row) of frames not yet fully written.
  std::deque<std::pair<size_t, size_t>> marks;
};

Result<std::unique_ptr<LoadGen>> LoadGen::Connect(uint16_t port,
                                                  size_t conns) {
  std::vector<std::unique_ptr<Conn>> opened;
  for (size_t i = 0; i < conns; ++i) {
    auto conn = std::make_unique<Conn>();
    conn->fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (conn->fd < 0) return Status::Internal("socket: " + std::string(std::strerror(errno)));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    int one = 1;
    ::setsockopt(conn->fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (::connect(conn->fd, reinterpret_cast<sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      Status st = Status::Internal("connect: " + std::string(std::strerror(errno)));
      ::close(conn->fd);
      for (auto& c : opened) ::close(c->fd);
      return st;
    }
    ::fcntl(conn->fd, F_SETFL, ::fcntl(conn->fd, F_GETFL) | O_NONBLOCK);
    opened.push_back(std::move(conn));
  }
  return std::unique_ptr<LoadGen>(new LoadGen(std::move(opened)));
}

LoadGen::LoadGen(std::vector<std::unique_ptr<Conn>> conns)
    : conns_(std::move(conns)) {}

LoadGen::~LoadGen() {
  for (auto& conn : conns_) ::close(conn->fd);
}

void LoadGen::Send(RequestTable& table, size_t index) {
  Conn& conn = *conns_[table.requests[index].conn];
  conn.out += net::EncodeQueryFrame(table.WireFor(index));
  conn.marks.emplace_back(conn.out.size(), index);
  ++outstanding_;
}

Status LoadGen::Flush(RequestTable& table) {
  for (auto& conn : conns_) {
    while (conn->out_off < conn->out.size()) {
      ssize_t n = ::write(conn->fd, conn->out.data() + conn->out_off,
                          conn->out.size() - conn->out_off);
      if (n > 0) {
        conn->out_off += static_cast<size_t>(n);
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      } else {
        return Status::Internal("write: " + std::string(std::strerror(errno)));
      }
    }
    int64_t now = NowNs();
    while (!conn->marks.empty() && conn->marks.front().first <= conn->out_off) {
      table.requests[conn->marks.front().second].sent_ns = now;
      conn->marks.pop_front();
    }
    if (conn->out_off == conn->out.size()) {
      conn->out.clear();
      conn->out_off = 0;
    }
  }
  return Status::Ok();
}

template <typename OnReply>
Status LoadGen::Poll(RequestTable& table, int64_t timeout_ns,
                     OnReply&& on_reply) {
  std::vector<pollfd> fds(conns_.size());
  for (size_t i = 0; i < conns_.size(); ++i) {
    fds[i].fd = conns_[i]->fd;
    fds[i].events = POLLIN;
    if (conns_[i]->out_off < conns_[i]->out.size()) fds[i].events |= POLLOUT;
  }
  timeout_ns = std::max<int64_t>(0, timeout_ns);
  timespec ts{static_cast<time_t>(timeout_ns / 1000000000),
              static_cast<long>(timeout_ns % 1000000000)};
  int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
  if (ready < 0) {
    if (errno == EINTR) return Status::Ok();
    return Status::Internal("ppoll: " + std::string(std::strerror(errno)));
  }
  char buf[64 * 1024];
  for (size_t i = 0; i < conns_.size(); ++i) {
    if ((fds[i].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
    Conn& conn = *conns_[i];
    for (;;) {
      ssize_t n = ::read(conn.fd, buf, sizeof(buf));
      if (n > 0) {
        conn.assembler.Feed(std::string_view(buf, static_cast<size_t>(n)));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      return Status::Internal("connection closed by server");
    }
    int64_t now = NowNs();
    net::Frame frame;
    Status error;
    for (;;) {
      net::FrameAssembler::Outcome outcome = conn.assembler.Next(&frame, &error);
      if (outcome == net::FrameAssembler::Outcome::kNeedMore) break;
      if (outcome == net::FrameAssembler::Outcome::kError) return error;
      if (frame.type != net::FrameType::kQueryResponse) {
        Status sent;
        if (frame.type == net::FrameType::kError &&
            net::DecodeErrorPayload(frame.payload, &sent).ok()) {
          return Status::Internal("server error frame: " + sent.ToString());
        }
        return Status::Internal("unexpected frame type");
      }
      net::WireResult result;
      UPA_RETURN_IF_ERROR(net::DecodeResultPayload(frame.payload, &result));
      int64_t index = static_cast<int64_t>(result.client_tag) - 1;
      if (index < 0 || static_cast<size_t>(index) >= table.requests.size() ||
          table.requests[index].answered) {
        return Status::Internal("reply with an unknown client tag");
      }
      Request& req = table.requests[index];
      req.done_ns = now;
      req.answered = true;
      req.result = std::move(result);
      --outstanding_;
      on_reply(static_cast<size_t>(index));
    }
  }
  return Status::Ok();
}

Status LoadGen::RunOpen(RequestTable& table, const std::vector<size_t>& order,
                        double drain_seconds) {
  constexpr int64_t kMaxWaitNs = 20'000'000;
  size_t next = 0;
  int64_t drain_deadline = 0;
  for (;;) {
    int64_t now = NowNs();
    while (next < order.size() &&
           table.requests[order[next]].due_at_ns <= now) {
      Send(table, order[next++]);
    }
    UPA_RETURN_IF_ERROR(Flush(table));
    if (next == order.size()) {
      if (outstanding_ == 0) return Status::Ok();
      if (drain_deadline == 0) {
        drain_deadline = now + static_cast<int64_t>(drain_seconds * 1e9);
      } else if (now > drain_deadline) {
        return Status::DeadlineExceeded(
            std::to_string(outstanding_) + " open-loop replies missing");
      }
    }
    int64_t wait = next < order.size()
                       ? table.requests[order[next]].due_at_ns - now
                       : kMaxWaitNs;
    UPA_RETURN_IF_ERROR(
        Poll(table, std::min(wait, kMaxWaitNs), [](size_t) {}));
  }
}

Status LoadGen::RunClosed(RequestTable& table,
                          std::vector<std::deque<size_t>>& queues,
                          size_t window, int64_t end_ns,
                          double drain_seconds) {
  constexpr int64_t kMaxWaitNs = 20'000'000;
  const bool shared = queues.size() == 1;
  auto send_next = [&](size_t conn) {
    std::deque<size_t>& queue = queues[shared ? 0 : conn];
    if (queue.empty()) return;
    size_t index = queue.front();
    queue.pop_front();
    if (shared) table.requests[index].conn = static_cast<uint32_t>(conn);
    Send(table, index);
  };
  for (size_t c = 0; c < conns_.size(); ++c) {
    for (size_t w = 0; w < window; ++w) send_next(c);
  }
  const int64_t drain_deadline =
      end_ns + static_cast<int64_t>(drain_seconds * 1e9);
  for (;;) {
    UPA_RETURN_IF_ERROR(Flush(table));
    int64_t now = NowNs();
    if (outstanding_ == 0) return Status::Ok();
    if (now > drain_deadline) {
      return Status::DeadlineExceeded(std::to_string(outstanding_) +
                                      " closed-loop replies missing");
    }
    UPA_RETURN_IF_ERROR(Poll(table, kMaxWaitNs, [&](size_t index) {
      if (NowNs() < end_ns) send_next(table.requests[index].conn);
    }));
  }
}

}  // namespace upa::releasebench
