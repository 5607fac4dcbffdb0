#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/cancel.h"

namespace upa {
namespace {

TEST(ThreadPoolTest, DefaultHasAtLeastOneThread) {
  ThreadPool pool;
  EXPECT_GE(pool.thread_count(), 1u);
}

TEST(ThreadPoolTest, ExplicitThreadCount) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.thread_count(), 3u);
}

TEST(ThreadPoolTest, SubmitRunsTask) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  auto fut = pool.Submit([&] { counter.fetch_add(1); });
  fut.get();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPoolTest, ManyTasksAllRun) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 200; ++i) {
    futures.push_back(pool.Submit([&] { counter.fetch_add(1); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPoolTest, ParallelForTouchesEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> touched(1000);
  pool.ParallelFor(1000, [&](size_t i) { touched[i].fetch_add(1); });
  for (auto& t : touched) EXPECT_EQ(t.load(), 1);
}

TEST(ThreadPoolTest, ParallelForZeroIsNoOp) {
  ThreadPool pool(2);
  bool called = false;
  pool.ParallelFor(0, [&](size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, ParallelForSumMatchesSerial) {
  ThreadPool pool(8);
  std::vector<long> values(10000);
  std::iota(values.begin(), values.end(), 0);
  std::atomic<long> sum{0};
  pool.ParallelFor(values.size(), [&](size_t i) { sum.fetch_add(values[i]); });
  EXPECT_EQ(sum.load(), 10000L * 9999 / 2);
}

TEST(ThreadPoolTest, ExceptionPropagatesFromParallelFor) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.ParallelFor(10,
                       [&](size_t i) {
                         if (i == 3) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
}

TEST(ThreadPoolTest, SingleThreadPoolStillWorks) {
  ThreadPool pool(1);
  std::atomic<int> counter{0};
  pool.ParallelFor(50, [&](size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 50);
}

// Regression: ParallelFor called from inside a pool worker used to block
// on future::get() while its sibling chunks waited in the queue for that
// same worker — a guaranteed deadlock once every worker was a waiter. The
// help-run loop must complete this on any pool size, including one.
TEST(ThreadPoolTest, NestedParallelForFromWorkerCompletesOnOneThreadPool) {
  ThreadPool pool(1);
  std::atomic<int> counter{0};
  auto outer = pool.Submit([&] {
    pool.ParallelFor(64, [&](size_t) { counter.fetch_add(1); });
  });
  outer.get();
  EXPECT_EQ(counter.load(), 64);
}

TEST(ThreadPoolTest, NestedParallelForFromEveryWorkerCompletes) {
  // Saturate a 2-thread pool with outer tasks that all fan out again: with
  // blocking waits both workers would be stuck waiting for chunks only
  // they themselves could run.
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> outer;
  for (int t = 0; t < 4; ++t) {
    outer.push_back(pool.Submit([&] {
      pool.ParallelFor(64, [&](size_t) { counter.fetch_add(1); });
    }));
  }
  for (auto& f : outer) f.get();
  EXPECT_EQ(counter.load(), 4 * 64);
}

TEST(ThreadPoolTest, DoublyNestedParallelForCompletes) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.ParallelFor(4, [&](size_t) {
    pool.ParallelFor(8, [&](size_t) { counter.fetch_add(1); });
  });
  EXPECT_EQ(counter.load(), 4 * 8);
}

TEST(ThreadPoolTest, NestedParallelForPropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.ParallelFor(4,
                                [&](size_t) {
                                  pool.ParallelFor(8, [](size_t i) {
                                    if (i == 5) {
                                      throw std::runtime_error("inner boom");
                                    }
                                  });
                                }),
               std::runtime_error);
}

TEST(ThreadPoolTest, MorselsCoverEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  for (size_t n : {0u, 1u, 7u, 100u, 4096u}) {
    for (size_t grain : {0u, 1u, 3u, 64u, 10000u}) {
      std::vector<std::atomic<int>> seen(n);
      for (auto& s : seen) s.store(0);
      size_t morsels =
          pool.ParallelForMorsels(n, grain, [&](size_t begin, size_t end) {
            for (size_t i = begin; i < end; ++i) seen[i].fetch_add(1);
          });
      if (n == 0) {
        EXPECT_EQ(morsels, 0u);
      } else if (grain > 0) {
        EXPECT_EQ(morsels, (n + grain - 1) / grain);
      } else {
        EXPECT_GE(morsels, 1u);
      }
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(seen[i].load(), 1) << "n=" << n << " grain=" << grain
                                     << " i=" << i;
      }
    }
  }
}

TEST(ThreadPoolTest, MorselBoundariesDependOnlyOnCountAndGrain) {
  // The same (n, grain) must produce the same set of [begin, end) ranges on
  // any pool size — the property the columnar engine's bit-identity rests
  // on (each range writes its own output slot).
  auto ranges_with = [](size_t threads) {
    ThreadPool pool(threads);
    std::mutex mu;
    std::vector<std::pair<size_t, size_t>> out;
    pool.ParallelForMorsels(1003, 17, [&](size_t begin, size_t end) {
      std::lock_guard lock(mu);
      out.push_back({begin, end});
    });
    std::sort(out.begin(), out.end());
    return out;
  };
  EXPECT_EQ(ranges_with(1), ranges_with(4));
}

TEST(ThreadPoolTest, NestedMorselsOnSingleThreadPoolCompletes) {
  ThreadPool pool(1);
  std::atomic<int> counter{0};
  pool.ParallelForMorsels(4, 1, [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) {
      pool.ParallelForMorsels(8, 1, [&](size_t ib, size_t ie) {
        counter.fetch_add(static_cast<int>(ie - ib));
      });
    }
  });
  EXPECT_EQ(counter.load(), 4 * 8);
}

TEST(ThreadPoolTest, MorselsPropagateExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.ParallelForMorsels(64, 4,
                                       [](size_t begin, size_t) {
                                         if (begin == 32) {
                                           throw std::runtime_error("boom");
                                         }
                                       }),
               std::runtime_error);
}

TEST(ThreadPoolTest, MorselsPollCancellationAtBoundaries) {
  ThreadPool pool(2);
  CancelToken token;
  CancelScope scope(&token);
  std::atomic<int> ran{0};
  pool.ParallelForMorsels(1000, 1, [&](size_t, size_t) {
    // Trip after the first few morsels: all not-yet-pulled morsels must be
    // shed rather than executed.
    if (ran.fetch_add(1) == 2) token.Cancel();
  });
  EXPECT_LT(ran.load(), 1000);
  EXPECT_TRUE(token.cancelled());
}

TEST(ThreadPoolTest, MorselTimingsOnePerExecutedMorsel) {
  ThreadPool pool(3);
  ThreadPool::MorselTimings timings;
  size_t morsels = pool.ParallelForMorsels(
      100, 9, [](size_t, size_t) {}, &timings);
  EXPECT_EQ(morsels, 12u);
  EXPECT_EQ(timings.seconds.size(), 12u);
  for (double s : timings.seconds) EXPECT_GE(s, 0.0);
}

TEST(ThreadPoolTest, NestedSubmitFromTaskDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  auto outer = pool.Submit([&] {
    counter.fetch_add(1);
    // Do not wait on the inner future inside the worker; just enqueue.
    pool.Submit([&] { counter.fetch_add(1); });
  });
  outer.get();
  // Give the inner task a chance to run by submitting a barrier task.
  pool.Submit([] {}).get();
  EXPECT_GE(counter.load(), 1);
}

}  // namespace
}  // namespace upa
