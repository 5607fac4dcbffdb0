#include "net/client.h"

#include <errno.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <utility>

#include "common/rng.h"
#include "common/timer.h"
#include "net/conn.h"

namespace upa::net {
namespace {

/// Process-unique, nonzero idempotency nonce for a new connection: pid ×
/// wall-clock × a process-wide counter, finalized through SplitMix64 so
/// two clients dialed in the same nanosecond (or across a fork) still get
/// distinct keyspaces.
uint64_t GenerateClientNonce() {
  static std::atomic<uint64_t> counter{0};
  uint64_t seed = static_cast<uint64_t>(::getpid());
  seed = seed * 0x9e3779b97f4a7c15ULL ^
         static_cast<uint64_t>(
             std::chrono::system_clock::now().time_since_epoch().count());
  seed ^= counter.fetch_add(1, std::memory_order_relaxed) + 1;
  uint64_t nonce = SplitMix64(seed).Next();
  return nonce != 0 ? nonce : 1;
}

/// Wait for fd readiness within the absolute deadline. events is POLLIN or
/// POLLOUT. OK when ready; kDeadlineExceeded when time ran out.
Status WaitReady(int fd, short events, int64_t deadline_ns) {
  for (;;) {
    int64_t left_ns = deadline_ns - NowNanos();
    if (left_ns <= 0) return Status::DeadlineExceeded("socket wait timed out");
    int timeout_ms = static_cast<int>((left_ns + 999999) / 1000000);
    pollfd p{};
    p.fd = fd;
    p.events = events;
    int n = ::poll(&p, 1, timeout_ms);
    if (n > 0) return Status::Ok();
    if (n == 0) return Status::DeadlineExceeded("socket wait timed out");
    if (errno == EINTR) continue;
    return Status::Internal(std::string("poll: ") + ::strerror(errno));
  }
}

}  // namespace

Result<std::unique_ptr<Client>> Client::Connect(const std::string& host,
                                                uint16_t port,
                                                int64_t timeout_ms) {
  Result<int> fd_or = StartConnect(host, port);
  UPA_RETURN_IF_ERROR(fd_or.status());
  int fd = fd_or.value();
  int64_t deadline_ns = NowNanos() + timeout_ms * 1000000;
  Status ready = WaitReady(fd, POLLOUT, deadline_ns);
  Status finished = ready.ok() ? FinishConnect(fd) : ready;
  if (!finished.ok()) {
    ::close(fd);
    return finished;
  }
  return std::unique_ptr<Client>(new Client(fd));
}

std::unique_ptr<Client> Client::FromConnectedFd(int fd) {
  return std::unique_ptr<Client>(new Client(fd));
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

Status Client::SendBytes(std::string_view bytes) {
  UPA_RETURN_IF_ERROR(broken_);
  int64_t deadline_ns = NowNanos() + int64_t{30000} * 1000000;
  size_t sent = 0;
  while (sent < bytes.size()) {
    ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                       MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      Status ready = WaitReady(fd_, POLLOUT, deadline_ns);
      if (!ready.ok()) {
        broken_ = ready;
        return broken_;
      }
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    broken_ = Status::Internal(std::string("send: ") + ::strerror(errno));
    return broken_;
  }
  return Status::Ok();
}

Result<Frame> Client::NextFrame(int64_t deadline_ns) {
  if (!broken_.ok()) return broken_;
  for (;;) {
    Frame frame;
    Status error = Status::Ok();
    FrameAssembler::Outcome outcome = assembler_.Next(&frame, &error);
    if (outcome == FrameAssembler::Outcome::kFrame) return frame;
    if (outcome == FrameAssembler::Outcome::kError) {
      broken_ = error;
      return broken_;
    }
    Status ready = WaitReady(fd_, POLLIN, deadline_ns);
    if (!ready.ok()) {
      broken_ = ready;
      return broken_;
    }
    char buf[64 * 1024];
    ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      assembler_.Feed(std::string_view(buf, static_cast<size_t>(n)));
      continue;
    }
    if (n == 0) {
      broken_ = Status::Internal("connection closed by server");
      return broken_;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) continue;
    broken_ = Status::Internal(std::string("recv: ") + ::strerror(errno));
    return broken_;
  }
}

Result<Frame> Client::ReadFrame(int64_t timeout_ms) {
  return NextFrame(NowNanos() + timeout_ms * 1000000);
}

Status Client::AdmitResponseTag(uint64_t tag) {
  if (inflight_.count(tag) != 0) return Status::Ok();
  // A response nothing is waiting for means the stream is desynchronized
  // from the request sequence — e.g. a late reply to a request whose
  // waiter already timed out on a previous connection incarnation, or a
  // server echoing a bad tag. Poison rather than deliver: the same
  // terminal latch as a transport failure.
  broken_ = Status::Internal("response for unknown client_tag " +
                             std::to_string(tag) +
                             " (stale reply?); connection poisoned");
  return broken_;
}

Result<uint64_t> Client::Send(WireQuery query) {
  UPA_RETURN_IF_ERROR(broken_);
  if (query.client_tag == 0) query.client_tag = next_tag_++;
  // Stamp an idempotency key unless the caller brought one (a manual
  // retry of an earlier request, possibly from a previous connection).
  if (query.client_nonce == 0) {
    if (client_nonce_ == 0) client_nonce_ = GenerateClientNonce();
    query.client_nonce = client_nonce_;
    query.client_seq = next_seq_++;
  }
  uint64_t tag = query.client_tag;
  if (inflight_.count(tag) != 0 || parked_.count(tag) != 0) {
    return Status::InvalidArgument("client_tag " + std::to_string(tag) +
                                   " is already in flight");
  }
  UPA_RETURN_IF_ERROR(SendBytes(EncodeQueryFrame(query)));
  inflight_.insert(tag);
  return tag;
}

Result<WireResult> Client::Await(uint64_t tag, int64_t timeout_ms) {
  if (auto it = parked_.find(tag); it != parked_.end()) {
    WireResult result = std::move(it->second);
    parked_.erase(it);
    return result;
  }
  if (inflight_.count(tag) == 0) {
    UPA_RETURN_IF_ERROR(broken_);
    return Status::InvalidArgument("client_tag " + std::to_string(tag) +
                                   " was never sent (or already delivered)");
  }
  int64_t deadline_ns = NowNanos() + timeout_ms * 1000000;
  for (;;) {
    Result<Frame> frame = NextFrame(deadline_ns);
    if (!frame.ok()) return frame.status();
    switch (frame.value().type) {
      case FrameType::kQueryResponse: {
        WireResult result;
        UPA_RETURN_IF_ERROR(
            DecodeResultPayload(frame.value().payload, &result));
        UPA_RETURN_IF_ERROR(AdmitResponseTag(result.client_tag));
        inflight_.erase(result.client_tag);
        if (result.client_tag == tag) return result;
        // Out-of-order completion for another in-flight tag: park it.
        parked_[result.client_tag] = std::move(result);
        break;
      }
      case FrameType::kError: {
        Status server_error = Status::Ok();
        UPA_RETURN_IF_ERROR(
            DecodeErrorPayload(frame.value().payload, &server_error));
        // The server closes after an error frame; the connection is done.
        broken_ = server_error;
        return server_error;
      }
      default:
        broken_ = Status::Internal("unexpected frame type from server");
        return broken_;
    }
  }
}

Result<WireResult> Client::Query(WireQuery query, int64_t timeout_ms) {
  Result<uint64_t> tag = Send(std::move(query));
  if (!tag.ok()) return tag.status();
  return Await(tag.value(), timeout_ms);
}

Result<std::string> Client::Stats(int64_t timeout_ms) {
  UPA_RETURN_IF_ERROR(broken_);
  UPA_RETURN_IF_ERROR(SendBytes(EncodeStatsRequestFrame()));
  int64_t deadline_ns = NowNanos() + timeout_ms * 1000000;
  for (;;) {
    Result<Frame> frame = NextFrame(deadline_ns);
    if (!frame.ok()) return frame.status();
    switch (frame.value().type) {
      case FrameType::kStatsResponse: {
        std::string text;
        UPA_RETURN_IF_ERROR(
            DecodeStatsResponsePayload(frame.value().payload, &text));
        return text;
      }
      case FrameType::kQueryResponse: {
        // A pipelined query raced the stats request; park it.
        WireResult result;
        UPA_RETURN_IF_ERROR(
            DecodeResultPayload(frame.value().payload, &result));
        UPA_RETURN_IF_ERROR(AdmitResponseTag(result.client_tag));
        inflight_.erase(result.client_tag);
        parked_[result.client_tag] = std::move(result);
        break;
      }
      case FrameType::kError: {
        Status server_error = Status::Ok();
        UPA_RETURN_IF_ERROR(
            DecodeErrorPayload(frame.value().payload, &server_error));
        broken_ = server_error;
        return server_error;
      }
      default:
        broken_ = Status::Internal("unexpected frame type from server");
        return broken_;
    }
  }
}

}  // namespace upa::net
