#include "common/cancel.h"

#include "common/timer.h"

namespace upa {

void CancelToken::Cancel(StatusCode code, std::string message) {
  UPA_CHECK_MSG(code == StatusCode::kCancelled ||
                    code == StatusCode::kDeadlineExceeded,
                "CancelToken::Cancel takes kCancelled or kDeadlineExceeded");
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (tripped_.load(std::memory_order_relaxed)) return;  // first wins
    code_ = code;
    message_ = std::move(message);
    // Release: the store publishes code_/message_ to cancelled() readers.
    tripped_.store(true, std::memory_order_release);
  }
}

void CancelToken::SetDeadlineAfterMillis(int64_t millis) {
  if (millis <= 0) return;
  deadline_ns_.store(NowNanos() + millis * 1'000'000,
                     std::memory_order_relaxed);
}

Status CancelToken::Check() {
  if (!tripped_.load(std::memory_order_acquire)) {
    int64_t deadline = deadline_ns_.load(std::memory_order_relaxed);
    if (deadline != 0 && NowNanos() > deadline) {
      Cancel(StatusCode::kDeadlineExceeded, "deadline exceeded");
    }
  }
  return status();
}

Status CancelToken::status() const {
  if (!tripped_.load(std::memory_order_acquire)) return Status::Ok();
  std::lock_guard<std::mutex> lock(mu_);
  return Status(code_, message_);
}

}  // namespace upa
