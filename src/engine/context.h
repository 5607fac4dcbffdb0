// ExecContext: the engine's "SparkContext".
//
// Owns the scheduler thread pool and the metrics registry. Datasets hold a
// pointer to their context; one context is shared by all datasets of an
// experiment. Block caches are caller-owned and scoped (engine/cache.h):
// one context serves many releases, and nothing may outlive its release.
#pragma once

#include <cstddef>
#include <memory>
#include <type_traits>

#include "common/cancel.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "engine/metrics.h"

namespace upa::engine {

struct ExecConfig {
  /// Worker threads for partition tasks (0 = hardware concurrency).
  size_t threads = 0;
  /// Default partition count for new datasets (the paper partitions the
  /// input into two for the Range Enforcer; analytics use more).
  size_t default_partitions = 4;
};

class ExecContext {
 public:
  explicit ExecContext(ExecConfig config = {})
      : config_(config),
        pool_(std::make_unique<ThreadPool>(config.threads)) {}

  ExecContext(const ExecContext&) = delete;
  ExecContext& operator=(const ExecContext&) = delete;

  ThreadPool& pool() { return *pool_; }
  ExecMetrics& metrics() { return metrics_; }
  const ExecConfig& config() const { return config_; }

  /// The cancel token governing the current request on this thread
  /// (installed by the service's CancelScope), or nullptr when none. One
  /// context serves many concurrent queries, so the token rides the
  /// thread-local scope rather than the context itself.
  static CancelToken* CurrentCancel() { return CancelScope::Current(); }
  /// OK, or the current token's kCancelled/kDeadlineExceeded status.
  /// Polls any armed deadline; engine phases call this between stages.
  static Status CheckCancel() { return CancelScope::CheckCurrent(); }

  /// Time a named phase; attributed in metrics().Snapshot().phase_seconds.
  template <typename Fn>
  auto TimePhase(const char* phase, Fn&& fn) {
    Stopwatch watch;
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      metrics_.AddPhaseSeconds(phase, watch.ElapsedSeconds());
    } else {
      auto result = fn();
      metrics_.AddPhaseSeconds(phase, watch.ElapsedSeconds());
      return result;
    }
  }

 private:
  ExecConfig config_;
  std::unique_ptr<ThreadPool> pool_;
  ExecMetrics metrics_;
};

}  // namespace upa::engine
