#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>

#include "common/cancel.h"
#include "common/failpoint.h"
#include "common/status.h"
#include "common/timer.h"

namespace upa {

ThreadPool::ThreadPool(size_t threads) {
  if (threads == 0) {
    threads = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

std::future<void> ThreadPool::Submit(std::function<void()> task) {
  std::packaged_task<void()> wrapped(std::move(task));
  std::future<void> fut = wrapped.get_future();
  {
    std::lock_guard lock(mu_);
    UPA_CHECK_MSG(!stop_, "Submit on a stopped ThreadPool");
    queue_.push(std::move(wrapped));
  }
  cv_.notify_one();
  return fut;
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  ParallelForMorsels(n, 1, [&fn](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) fn(i);
  });
}

size_t ThreadPool::ParallelForMorsels(
    size_t n, size_t grain, const std::function<void(size_t, size_t)>& fn,
    MorselTimings* timings) {
  if (n == 0) return 0;
  if (grain == 0) {
    // Several morsels per worker so pulls can rebalance, without making the
    // cursor a contention point for tiny per-item work.
    grain = std::max<size_t>(1, n / (thread_count() * 8));
  }
  const size_t morsels = (n + grain - 1) / grain;
  CancelToken* token = CancelScope::Current();

  // Shared pull state. Workers fetch-add the cursor, so morsel boundaries
  // are a pure function of (n, grain); only *which thread* runs a morsel
  // varies between executions.
  std::atomic<size_t> cursor{0};
  std::mutex timings_mu;
  auto drain = [&] {
    std::vector<double> local;
    for (;;) {
      const size_t begin = cursor.fetch_add(grain, std::memory_order_relaxed);
      if (begin >= n) break;
      // Morsel boundaries are the cancellation polling points: a tripped
      // token sheds every not-yet-pulled morsel.
      if (token != nullptr && !token->Check().ok()) break;
      if (timings != nullptr) {
        Stopwatch watch;
        fn(begin, std::min(n, begin + grain));
        local.push_back(watch.ElapsedSeconds());
      } else {
        fn(begin, std::min(n, begin + grain));
      }
    }
    if (timings != nullptr && !local.empty()) {
      std::lock_guard lock(timings_mu);
      timings->seconds.insert(timings->seconds.end(), local.begin(),
                              local.end());
    }
  };

  const size_t helpers = std::min(morsels, thread_count()) - 1;
  if (helpers == 0) {
    drain();
  } else {
    std::vector<std::future<void>> futures;
    futures.reserve(helpers);
    for (size_t h = 0; h < helpers; ++h) {
      futures.push_back(Submit([&drain, token] {
        CancelScope scope(token);
        drain();
      }));
    }
    // The caller participates, then waits for every helper before
    // propagating any error: morsels reference the caller's stack state,
    // so unwinding while helpers still run would be a use-after-scope.
    //
    // While waiting, help-run queued tasks. A plain future::get() here
    // would deadlock when the caller is itself a pool worker: its helpers
    // sit in the queue waiting for this very thread. Draining the queue
    // instead guarantees progress on any pool size, including a 1-thread
    // pool whose single worker calls ParallelFor recursively.
    std::exception_ptr first_error;
    try {
      drain();
    } catch (...) {
      first_error = std::current_exception();
    }
    for (auto& f : futures) {
      while (f.wait_for(std::chrono::seconds(0)) !=
             std::future_status::ready) {
        if (!TryRunOneTask()) {
          // Queue empty but the helper still runs on another worker; a
          // short timed wait (not a bare get()) keeps us responsive to
          // tasks that the running morsel may itself enqueue.
          f.wait_for(std::chrono::milliseconds(1));
        }
      }
      try {
        f.get();
      } catch (...) {
        if (!first_error) first_error = std::current_exception();
      }
    }
    if (first_error) std::rethrow_exception(first_error);
  }
  return morsels;
}

bool ThreadPool::TryRunOneTask() {
  std::packaged_task<void()> task;
  {
    std::lock_guard lock(mu_);
    if (queue_.empty()) return false;
    task = std::move(queue_.front());
    queue_.pop();
  }
  UPA_FAILPOINT_HIT("threadpool/task");
  task();
  return true;
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
    }
    UPA_FAILPOINT_HIT("threadpool/task");
    task();
  }
}

}  // namespace upa
