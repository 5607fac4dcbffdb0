// Monotonic stopwatch and scoped phase timing.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>

namespace upa {

/// Steady-clock nanoseconds since an arbitrary epoch: deadlines and
/// intervals, never wall time.
inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Wall-clock stopwatch on the steady clock.
class Stopwatch {
 public:
  Stopwatch() { Reset(); }

  void Reset() { start_ = Clock::now(); }

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }
  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }
  uint64_t ElapsedMicros() const {
    return static_cast<uint64_t>(ElapsedSeconds() * 1e6);
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Calls `on_done(elapsed_seconds)` when the scope ends. Used by the engine
/// to attribute time to named phases (map / reduce / shuffle / enforcer).
class ScopedTimer {
 public:
  explicit ScopedTimer(std::function<void(double)> on_done)
      : on_done_(std::move(on_done)) {}
  ~ScopedTimer() {
    if (on_done_) on_done_(watch_.ElapsedSeconds());
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  std::function<void(double)> on_done_;
  Stopwatch watch_;
};

}  // namespace upa
