// Cooperative cancellation and deadlines.
//
// A CancelToken carries a "stop now" signal (client cancellation, service
// watchdog, or an attached deadline) to a running query. Cancellation is
// cooperative: hot loops poll the token at natural boundaries —
// ThreadPool morsel boundaries, columnar kernel batches, and
// between UpaRunner phases — and bail out with StatusCode::kCancelled /
// kDeadlineExceeded. Nothing is released after a check observes the
// cancellation, which is what lets the service refund the budget charge
// (refund iff nothing was released; see DESIGN.md "Robustness").
//
// Tokens reach the workers through a thread-local CancelScope stack rather
// than through every call signature: the service installs the request's
// token around the run, and ParallelForMorsels re-installs the caller's
// token inside each helper task (helpers execute on other pool threads).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>

#include "common/status.h"

namespace upa {

/// Thread-safe one-shot cancellation flag with an optional deadline.
/// `cancelled()` is a single relaxed atomic load; `Check()` additionally
/// polls the deadline (one steady_clock read) — cheap enough for chunk
/// boundaries, not for per-record inner loops.
class CancelToken {
 public:
  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Trip the token. First caller wins; later calls are no-ops. `code`
  /// must be kCancelled or kDeadlineExceeded.
  void Cancel(StatusCode code = StatusCode::kCancelled,
              std::string message = "cancelled");

  /// Arm a deadline `millis` from now; Check() trips the token with
  /// kDeadlineExceeded once it passes. millis <= 0 is ignored.
  void SetDeadlineAfterMillis(int64_t millis);

  bool cancelled() const {
    return tripped_.load(std::memory_order_acquire);
  }

  /// OK while live; the cancellation status once tripped. Polls the
  /// deadline as a side effect, so a deadline expiry is observed by the
  /// first Check() after it passes.
  Status Check();

  /// The trip status without polling the deadline (const observers).
  Status status() const;

 private:
  std::atomic<bool> tripped_{false};
  std::atomic<int64_t> deadline_ns_{0};  // 0 = no deadline (steady clock)
  mutable std::mutex mu_;                // code_/message_ on the trip path
  StatusCode code_ = StatusCode::kCancelled;
  std::string message_;
};

/// RAII: installs `token` as the calling thread's current cancel token for
/// the scope's lifetime (nullptr is allowed and means "uncancellable").
/// Scopes nest; the previous token is restored on destruction.
class CancelScope {
 public:
  explicit CancelScope(CancelToken* token) : previous_(current_) {
    current_ = token;
  }
  ~CancelScope() { current_ = previous_; }

  CancelScope(const CancelScope&) = delete;
  CancelScope& operator=(const CancelScope&) = delete;

  /// The innermost token installed on this thread (nullptr when none).
  static CancelToken* Current() { return current_; }

  /// Convenience: Check() on the current token, OK when none installed.
  static Status CheckCurrent() {
    return current_ != nullptr ? current_->Check() : Status::Ok();
  }

 private:
  static inline thread_local CancelToken* current_ = nullptr;
  CancelToken* previous_;
};

}  // namespace upa
