// Fixed-size thread pool with a parallel-for helper.
//
// The engine schedules one task per dataset partition on this pool, the way
// Spark schedules one task per RDD partition on its executors. The pool size
// defaults to the hardware concurrency and can be overridden (the CI box for
// this repo has a single core; correctness does not depend on parallelism).
//
// ParallelForMorsels is the one parallel-for: workers pull fixed-grain
// morsels off a shared atomic cursor, so a worker stuck on a heavy morsel
// only delays its own morsel while the others drain the rest. Morsel
// boundaries depend only on (n, grain) — never on the pool size or pull
// order — so callers writing disjoint slots per index get bit-identical
// results at any thread count. ParallelFor is a morsel run with grain 1:
// one index per morsel.
//
// Both are safe to call from inside a pool worker: while a caller waits for
// its helpers it help-runs queued tasks instead of blocking, so nested
// parallelism cannot deadlock even on a 1-thread pool.
//
// Cooperative cancellation: every helper polls the caller's CancelScope
// token at morsel boundaries — once the token trips, not-yet-pulled
// morsels are skipped (the caller converts the trip into kCancelled /
// kDeadlineExceeded and discards the partial result). See common/cancel.h.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace upa {

class ThreadPool {
 public:
  /// threads == 0 → std::thread::hardware_concurrency() (min 1).
  explicit ThreadPool(size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t thread_count() const { return workers_.size(); }

  /// Enqueue a task; the future resolves when it completes.
  std::future<void> Submit(std::function<void()> task);

  /// Run fn(i) for i in [0, n), one index per morsel, and wait for all of
  /// them. Exceptions in fn propagate to the caller. May be called from
  /// inside a pool worker (see file comment).
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  /// Per-morsel wall-clock samples from one ParallelForMorsels call, for
  /// the engine's duration histograms and the max/mean imbalance gauge
  /// (engine::ExecMetrics::RecordMorselRun).
  struct MorselTimings {
    std::vector<double> seconds;  // one entry per executed morsel
  };

  /// Morsel-driven parallel-for: workers (plus the calling thread) pull
  /// morsels [i, min(n, i+grain)) off a shared atomic cursor and run
  /// fn(begin, end) on each until the range is drained. grain==0 picks a
  /// default that yields several morsels per worker. Exceptions propagate
  /// after every helper finished; `timings`, when non-null, receives one
  /// duration sample per executed morsel. Returns the number of morsels
  /// the range divides into. Safe to call from inside a pool worker.
  size_t ParallelForMorsels(size_t n, size_t grain,
                            const std::function<void(size_t, size_t)>& fn,
                            MorselTimings* timings = nullptr);

 private:
  void WorkerLoop();
  /// Pops and runs one queued task if any; returns false when the queue is
  /// empty. Used by waiters to make progress instead of blocking (the
  /// help-run loop that makes nested ParallelFor safe).
  bool TryRunOneTask();

  std::vector<std::thread> workers_;
  std::queue<std::packaged_task<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace upa
