// CancelToken / CancelScope semantics and their integration with
// ThreadPool morsel boundaries.
#include "common/cancel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "common/thread_pool.h"

namespace upa {
namespace {

TEST(CancelTokenTest, FreshTokenIsLive) {
  CancelToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_TRUE(token.Check().ok());
  EXPECT_TRUE(token.status().ok());
}

TEST(CancelTokenTest, CancelTripsWithCodeAndMessage) {
  CancelToken token;
  token.Cancel(StatusCode::kCancelled, "client went away");
  EXPECT_TRUE(token.cancelled());
  Status st = token.Check();
  EXPECT_EQ(st.code(), StatusCode::kCancelled);
  EXPECT_EQ(st.message(), "client went away");
}

TEST(CancelTokenTest, FirstCancelWins) {
  CancelToken token;
  token.Cancel(StatusCode::kDeadlineExceeded, "first");
  token.Cancel(StatusCode::kCancelled, "second");
  EXPECT_EQ(token.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(token.status().message(), "first");
}

TEST(CancelTokenTest, DeadlineTripsOnCheckAfterExpiry) {
  CancelToken token;
  token.SetDeadlineAfterMillis(5);
  // status() does not poll: until a Check() observes the expiry the token
  // reads as live.
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  EXPECT_TRUE(token.status().ok());
  EXPECT_EQ(token.Check().code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(token.cancelled());
}

TEST(CancelTokenTest, FarDeadlineStaysLive) {
  CancelToken token;
  token.SetDeadlineAfterMillis(60000);
  EXPECT_TRUE(token.Check().ok());
}

TEST(CancelTokenTest, NonPositiveDeadlineIgnored) {
  CancelToken token;
  token.SetDeadlineAfterMillis(0);
  token.SetDeadlineAfterMillis(-5);
  EXPECT_TRUE(token.Check().ok());
}

TEST(CancelScopeTest, NestsAndRestores) {
  EXPECT_EQ(CancelScope::Current(), nullptr);
  EXPECT_TRUE(CancelScope::CheckCurrent().ok());
  CancelToken outer, inner;
  {
    CancelScope outer_scope(&outer);
    EXPECT_EQ(CancelScope::Current(), &outer);
    {
      CancelScope inner_scope(&inner);
      EXPECT_EQ(CancelScope::Current(), &inner);
    }
    EXPECT_EQ(CancelScope::Current(), &outer);
  }
  EXPECT_EQ(CancelScope::Current(), nullptr);
}

TEST(CancelScopeTest, CheckCurrentSeesInstalledToken) {
  CancelToken token;
  token.Cancel();
  CancelScope scope(&token);
  EXPECT_EQ(CancelScope::CheckCurrent().code(), StatusCode::kCancelled);
}

TEST(CancelParallelForTest, CancelledTokenSkipsAllChunks) {
  ThreadPool pool(2);
  CancelToken token;
  token.Cancel();
  CancelScope scope(&token);
  std::atomic<size_t> processed{0};
  pool.ParallelForMorsels(10000, 0, [&](size_t begin, size_t end) {
    processed.fetch_add(end - begin, std::memory_order_relaxed);
  });
  EXPECT_EQ(processed.load(), 0u);
}

TEST(CancelParallelForTest, CancelledTokenSkipsInlinePath) {
  // n == 1 runs inline (no helper task); the token still gates it.
  ThreadPool pool(1);
  CancelToken token;
  token.Cancel(StatusCode::kDeadlineExceeded, "too late");
  CancelScope scope(&token);
  std::atomic<size_t> calls{0};
  pool.ParallelFor(1, [&](size_t) {
    calls.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(calls.load(), 0u);
}

TEST(CancelParallelForTest, WorkerThreadsSeeCallersToken) {
  ThreadPool pool(4);
  CancelToken token;
  CancelScope scope(&token);
  std::atomic<size_t> with_token{0};
  std::atomic<size_t> morsels{0};
  pool.ParallelForMorsels(1000, 0, [&](size_t, size_t) {
    morsels.fetch_add(1, std::memory_order_relaxed);
    if (CancelScope::Current() == &token) {
      with_token.fetch_add(1, std::memory_order_relaxed);
    }
  });
  // ParallelForMorsels re-installs the caller's token inside every helper
  // task, so every morsel sees it, whichever pool thread runs it.
  EXPECT_EQ(with_token.load(), morsels.load());
  EXPECT_GT(morsels.load(), 0u);
}

TEST(CancelParallelForTest, NoTokenRunsEverything) {
  ThreadPool pool(2);
  ASSERT_EQ(CancelScope::Current(), nullptr);
  std::atomic<size_t> processed{0};
  pool.ParallelForMorsels(1000, 0, [&](size_t begin, size_t end) {
    processed.fetch_add(end - begin, std::memory_order_relaxed);
  });
  EXPECT_EQ(processed.load(), 1000u);
}

}  // namespace
}  // namespace upa
