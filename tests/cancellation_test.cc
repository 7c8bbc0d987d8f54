// CancellationToken: flag, parent chaining, deadline latching, and
// cooperative ParallelFor cancellation.

#include "src/util/cancellation.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "src/util/thread_pool.h"

namespace prodsyn {
namespace {

TEST(CancellationTokenTest, StartsUncancelled) {
  CancellationToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_FALSE(token.deadline_exceeded());
}

TEST(CancellationTokenTest, CancelSetsFlag) {
  CancellationToken token;
  token.Cancel();
  EXPECT_TRUE(token.cancelled());
  // Cancel() alone is not a deadline overrun.
  EXPECT_FALSE(token.deadline_exceeded());
}

TEST(CancellationTokenTest, ParentCancellationPropagates) {
  CancellationToken parent;
  CancellationToken child(&parent);
  EXPECT_FALSE(child.cancelled());
  parent.Cancel();
  EXPECT_TRUE(child.cancelled());
  // Propagation is one-way: cancelling a child never cancels the parent.
  CancellationToken parent2;
  CancellationToken child2(&parent2);
  child2.Cancel();
  EXPECT_FALSE(parent2.cancelled());
}

TEST(CancellationTokenTest, DeadlineExpiresAndLatches) {
  CancellationToken token;
  token.SetDeadline(std::chrono::milliseconds(5));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_TRUE(token.cancelled());
  EXPECT_TRUE(token.deadline_exceeded());
  // Latched: stays cancelled on every subsequent poll.
  EXPECT_TRUE(token.cancelled());
}

TEST(CancellationTokenTest, ZeroBudgetCancelsImmediately) {
  CancellationToken token;
  token.SetDeadline(std::chrono::nanoseconds(0));
  EXPECT_TRUE(token.cancelled());
  EXPECT_TRUE(token.deadline_exceeded());
}

TEST(CancellationTokenTest, GenerousDeadlineDoesNotFire) {
  CancellationToken token;
  token.SetDeadline(std::chrono::hours(1));
  EXPECT_FALSE(token.cancelled());
  EXPECT_FALSE(token.deadline_exceeded());
}

TEST(CancellationTokenTest, ParentDeadlinePropagates) {
  CancellationToken parent;
  CancellationToken child(&parent);
  parent.SetDeadline(std::chrono::nanoseconds(0));
  EXPECT_TRUE(child.cancelled());
}

TEST(ParallelForCancellationTest, PreCancelledTokenSkipsAllWork) {
  ThreadPool pool(4);
  CancellationToken token;
  token.Cancel();
  std::atomic<size_t> executed{0};
  ThreadPool::ParallelFor(  // lint: sharded — only the atomic is shared
      &pool, "test.precancelled", 1000, 1,
      [&](size_t begin, size_t end) { executed += end - begin; }, &token);
  EXPECT_EQ(executed.load(), 0u);
}

TEST(ParallelForCancellationTest, NullTokenRunsEverything) {
  ThreadPool pool(4);
  std::atomic<size_t> executed{0};
  ThreadPool::ParallelFor(  // lint: sharded — only the atomic is shared
      &pool, "test.null_token", 1000, 1,
      [&](size_t begin, size_t end) { executed += end - begin; }, nullptr);
  EXPECT_EQ(executed.load(), 1000u);
}

TEST(ParallelForCancellationTest, MidRunCancelReturnsWithoutHang) {
  ThreadPool pool(4);
  CancellationToken token;
  std::atomic<size_t> chunks{0};
  // The first chunk to run cancels the token; chunks that have not
  // started yet are skipped. The call must still return (latch drains).
  ThreadPool::ParallelFor(
      &pool, "test.mid_run", 64, 1,
      // lint: sharded — chunks is atomic, Cancel() is thread-safe
      [&](size_t begin, size_t end) {
        (void)begin;
        (void)end;
        ++chunks;
        token.Cancel();
      },
      &token);
  EXPECT_TRUE(token.cancelled());
  EXPECT_GE(chunks.load(), 1u);
  EXPECT_LE(chunks.load(), 4u);  // at most one chunk per claim loop
}

}  // namespace
}  // namespace prodsyn
