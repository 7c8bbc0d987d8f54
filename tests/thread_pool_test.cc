#include "src/util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "src/util/sched_stats.h"

namespace prodsyn {
namespace {

// Restores the process-global scheduler-accounting flag on scope exit,
// so these tests never leak state into the rest of the suite.
class ScopedSchedStats {
 public:
  explicit ScopedSchedStats(bool on) : prev_(SchedulerStats::enabled()) {
    if (on) {
      SchedulerStats::Enable();
    } else {
      SchedulerStats::Disable();
    }
  }
  ~ScopedSchedStats() {
    if (prev_) {
      SchedulerStats::Enable();
    } else {
      SchedulerStats::Disable();
    }
  }

 private:
  bool prev_;
};

TEST(ThreadPoolTest, HardwareThreadsIsAtLeastOne) {
  EXPECT_GE(ThreadPool::HardwareThreads(), 1u);
}

TEST(ThreadPoolTest, ZeroMeansHardwareDefault) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.thread_count(), ThreadPool::HardwareThreads());
}

TEST(ThreadPoolTest, ForItemsClampsToTheWorkAndSkipsSingleThreads) {
  EXPECT_EQ(ThreadPool::ForItems(1, 1000), nullptr);
  EXPECT_EQ(ThreadPool::ForItems(4, 1), nullptr);   // one item: inline
  EXPECT_EQ(ThreadPool::ForItems(4, 0), nullptr);   // no items: inline
  const auto clamped = ThreadPool::ForItems(8, 3);  // never idle workers
  ASSERT_NE(clamped, nullptr);
  EXPECT_EQ(clamped->thread_count(), 3u);
  const auto hardware = ThreadPool::ForItems(0, 1000);
  if (ThreadPool::HardwareThreads() > 1) {
    ASSERT_NE(hardware, nullptr);
    EXPECT_EQ(hardware->thread_count(), ThreadPool::HardwareThreads());
  } else {
    EXPECT_EQ(hardware, nullptr);
  }
}

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  // Every item runs exactly once for every range size, thread count and
  // grain.
  for (const size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{1000}}) {
    for (const size_t threads :
         {size_t{1}, size_t{2}, size_t{3}, size_t{4}, size_t{8}}) {
      for (const size_t grain : {size_t{1}, size_t{3}, size_t{64}}) {
        SCOPED_TRACE(::testing::Message() << "n=" << n << " threads="
                                          << threads << " grain=" << grain);
        ThreadPool pool(threads);
        std::vector<std::atomic<int>> hits(n);
        // lint: sharded — per-index atomic slots
        ThreadPool::ParallelFor(&pool, "test.cover", n, grain,
                                [&hits](size_t begin, size_t end) {
                                  for (size_t i = begin; i < end; ++i) {
                                    hits[i].fetch_add(1);
                                  }
                                });
        for (size_t i = 0; i < n; ++i) {
          EXPECT_EQ(hits[i].load(), 1) << "index " << i;
        }
      }
    }
  }
}

TEST(ThreadPoolTest, NullPoolRunsBodyOnceOnTheCaller) {
  const std::thread::id caller = std::this_thread::get_id();
  size_t calls = 0;
  size_t seen_begin = 99, seen_end = 0;
  bool on_caller = false;
  // lint: sharded — no pool: the body runs on this thread only
  ThreadPool::ParallelFor(nullptr, "test.inline", 1000, 3,
                          [&](size_t begin, size_t end) {
                            ++calls;
                            seen_begin = begin;
                            seen_end = end;
                            on_caller = std::this_thread::get_id() == caller;
                          });
  EXPECT_EQ(calls, 1u);
  EXPECT_EQ(seen_begin, 0u);
  EXPECT_EQ(seen_end, 1000u);
  EXPECT_TRUE(on_caller);
}

TEST(ThreadPoolTest, ParallelForEmptyRangeIsNoOp) {
  ThreadPool pool(2);
  bool called = false;
  // lint: sharded — n == 0 means the body never runs
  ThreadPool::ParallelFor(&pool, "test.empty", 0, 1,
                          [&called](size_t, size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, ParallelForSingleElementRunsInline) {
  ThreadPool pool(2);
  std::atomic<int> sum{0};
  // lint: sharded — atomic accumulator
  ThreadPool::ParallelFor(&pool, "test.single", 1, 1,
                          [&sum](size_t begin, size_t end) {
                            EXPECT_EQ(begin, 0u);
                            EXPECT_EQ(end, 1u);
                            sum.fetch_add(1);
                          });
  EXPECT_EQ(sum.load(), 1);
}

TEST(ThreadPoolTest, ParallelForPerIndexSlotsAreThreadCountInvariant) {
  // The determinism discipline: writes go to per-index slots, so the
  // assembled result is identical for any thread count.
  auto run = [](size_t threads) {
    ThreadPool pool(threads);
    std::vector<int> out(1000);
    // lint: sharded — per-index slots (the discipline under test)
    ThreadPool::ParallelFor(&pool, "test.slots", out.size(), 1,
                            [&out](size_t begin, size_t end) {
                              for (size_t i = begin; i < end; ++i) {
                                out[i] = static_cast<int>(i * i % 97);
                              }
                            });
    return out;
  };
  const auto one = run(1);
  const auto two = run(2);
  const auto five = run(5);
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, five);
}

TEST(ThreadPoolTest, PlanChunksEmptyRangePlansNothing) {
  const ChunkPlan plan = ThreadPool::PlanChunks(0, 4, 1);
  EXPECT_EQ(plan.grain, 0u);
  EXPECT_EQ(plan.chunks, 0u);
  EXPECT_EQ(plan.tasks, 0u);
}

TEST(ThreadPoolTest, PlanChunksSingleThreadRunsInline) {
  const ChunkPlan plan = ThreadPool::PlanChunks(1000, 1, 1);
  EXPECT_EQ(plan.grain, 1000u);
  EXPECT_EQ(plan.chunks, 1u);
  EXPECT_EQ(plan.tasks, 0u);  // inline on the caller
}

TEST(ThreadPoolTest, PlanChunksFewerItemsThanThreads) {
  // n < threads: at most one item per chunk, never an empty chunk.
  const ChunkPlan plan = ThreadPool::PlanChunks(3, 8, 1);
  EXPECT_EQ(plan.grain, 1u);
  EXPECT_EQ(plan.chunks, 3u);
  EXPECT_EQ(plan.tasks, 3u);
}

TEST(ThreadPoolTest, PlanChunksGrainLargerThanRangeCollapsesInline) {
  const ChunkPlan plan = ThreadPool::PlanChunks(64, 4, 100);
  EXPECT_EQ(plan.grain, 100u);
  EXPECT_EQ(plan.chunks, 1u);
  EXPECT_EQ(plan.tasks, 0u);  // one chunk — not worth a queue round trip
}

TEST(ThreadPoolTest, PlanChunksRespectsMinGrain) {
  const ChunkPlan plan = ThreadPool::PlanChunks(1000, 4, 64);
  EXPECT_GE(plan.grain, 64u);
  EXPECT_EQ(plan.chunks, (1000 + plan.grain - 1) / plan.grain);
  // Claim loops, at most one per worker.
  EXPECT_LE(plan.tasks, 4u);
  EXPECT_GT(plan.tasks, 0u);
}

TEST(ThreadPoolTest, PlanChunksStaticNeverExceedsOneChunkPerThread) {
  // Each worker runs at most one claim loop, so at most one chunk per
  // thread is ever in flight; the chunks exactly cover [0, n).
  for (size_t n : {2u, 7u, 64u, 1000u, 12345u}) {
    for (size_t threads : {2u, 3u, 8u}) {
      for (size_t grain : {1u, 3u, 64u}) {
        const ChunkPlan plan = ThreadPool::PlanChunks(n, threads, grain);
        SCOPED_TRACE(::testing::Message() << "n=" << n << " threads="
                                          << threads << " grain=" << grain);
        EXPECT_LE(plan.tasks, threads);
        EXPECT_LE(plan.tasks, plan.chunks);
        EXPECT_EQ(plan.tasks == 0, plan.chunks == 1);
        EXPECT_GE(plan.grain * plan.chunks, n);
        EXPECT_LT(plan.grain * (plan.chunks - 1), n);
      }
    }
  }
}

TEST(ThreadPoolTest, PlanChunksDynamicMakesMoreChunksThanThreads) {
  const ChunkPlan plan = ThreadPool::PlanChunks(10000, 4, 1);
  EXPECT_GT(plan.chunks, 4u);   // finer than one per worker, to balance...
  EXPECT_EQ(plan.tasks, 4u);    // ...but still one claim loop per worker
}

TEST(ThreadPoolTest, DynamicParallelForCoversRangeExactlyOnce) {
  // More chunks than claim loops: the workers race on the shared chunk
  // cursor, and still every item runs exactly once.
  ThreadPool pool(3);
  const ChunkPlan plan = ThreadPool::PlanChunks(257, 3, 3);
  ASSERT_GT(plan.chunks, plan.tasks);
  ASSERT_EQ(plan.tasks, 3u);
  std::vector<std::atomic<int>> hits(257);
  // lint: sharded — per-index atomic slots
  ThreadPool::ParallelFor(&pool, "test.dynamic", hits.size(), 3,
                          [&hits](size_t begin, size_t end) {
                            for (size_t i = begin; i < end; ++i) {
                              hits[i].fetch_add(1);
                            }
                          });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

// Runs the per-index slot discipline on a pool of `threads` workers with
// floor `grain` and returns the assembled slots.
std::vector<int> RunSlots(size_t threads, size_t grain) {
  ThreadPool pool(threads);
  std::vector<int> out(1000);
  // lint: sharded — per-index slots (the discipline under test)
  ThreadPool::ParallelFor(&pool, "test.invariance", out.size(), grain,
                          [&out](size_t begin, size_t end) {
                            for (size_t i = begin; i < end; ++i) {
                              out[i] = static_cast<int>(i * i % 97);
                            }
                          });
  return out;
}

TEST(ThreadPoolTest, ChunkedModesAreThreadCountInvariant) {
  // Per-index slot writes assemble the same result for any thread count
  // (0 = hardware) and any grain, i.e. any chunk plan.
  ScopedSchedStats stats(false);
  const auto reference = RunSlots(1, 1);
  for (const size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{0}}) {
    for (const size_t grain : {size_t{1}, size_t{7}, size_t{512}}) {
      EXPECT_EQ(RunSlots(threads, grain), reference)
          << "threads=" << threads << " grain=" << grain;
    }
  }
}

TEST(ThreadPoolTest, DynamicCancellationSkipsUnstartedChunksAndDrains) {
  ThreadPool pool(2);
  CancellationToken token;
  std::atomic<size_t> processed{0};
  std::atomic<bool> fired{false};
  // 1000 items in 16 chunks: the first executed chunk cancels, so at
  // most the in-flight chunks (one per claim loop) ever run; the call
  // must still return (the latch drains skipped chunks).
  // lint: sharded — atomics only
  ThreadPool::ParallelFor(
      &pool, "test.cancel", 1000, 10,
      [&](size_t begin, size_t end) {
        if (!fired.exchange(true)) token.Cancel();
        processed.fetch_add(end - begin);
      },
      &token);
  EXPECT_TRUE(token.cancelled());
  EXPECT_GT(processed.load(), 0u);   // something ran before the cut
  EXPECT_LT(processed.load(), 500u); // the bulk of the range was skipped
}

TEST(ThreadPoolTest, CancellationBeforeStartSkipsEverything) {
  ThreadPool pool(2);
  CancellationToken token;
  token.Cancel();
  std::atomic<size_t> processed{0};
  // lint: sharded — atomic counter
  ThreadPool::ParallelFor(
      &pool, "test.precancel", 1000, 1,
      [&processed](size_t begin, size_t end) {
        processed.fetch_add(end - begin);
      },
      &token);
  EXPECT_EQ(processed.load(), 0u);
}

TEST(ThreadPoolSchedStatsTest, DisabledPoolSnapshotsEmpty) {
  ScopedSchedStats stats(false);
  ThreadPool pool(2);
  EXPECT_FALSE(pool.sched_stats_enabled());
  ThreadPool::ParallelFor(&pool, "sched.disabled", 100, 1,
                          [](size_t, size_t) {});
  pool.NoteRegionMergeNanos("sched.disabled", 123);
  const PoolSchedSnapshot snapshot = pool.SchedSnapshot();
  EXPECT_TRUE(snapshot.workers.empty());
  EXPECT_TRUE(snapshot.regions.empty());
  EXPECT_EQ(snapshot.imbalance_permille.count, 0u);
}

TEST(ThreadPoolSchedStatsTest, EnableFlagIsSampledAtConstruction) {
  ScopedSchedStats stats(false);
  ThreadPool before(1);
  SchedulerStats::Enable();
  ThreadPool after(1);
  // Flipping the global flag never changes an existing pool's mode.
  EXPECT_FALSE(before.sched_stats_enabled());
  EXPECT_TRUE(after.sched_stats_enabled());
}

TEST(ThreadPoolSchedStatsTest, AccountsWorkersRegionsAndMerge) {
  ScopedSchedStats stats(true);
  ThreadPool pool(2);
  ASSERT_TRUE(pool.sched_stats_enabled());
  // Each chunk sleeps ~1 ms so every accounted wall is solidly nonzero.
  ThreadPool::ParallelFor(&pool, "sched.region", 4, 1,
                          [](size_t begin, size_t end) {
                            for (size_t i = begin; i < end; ++i) {
                              std::this_thread::sleep_for(
                                  std::chrono::milliseconds(1));
                            }
                          });
  {
    ScopedMergeTimer merge(&pool, "sched.region");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const PoolSchedSnapshot snapshot = pool.SchedSnapshot();

  ASSERT_EQ(snapshot.workers.size(), 2u);
  uint64_t busy = 0, tasks = 0;
  for (const PoolWorkerStats& worker : snapshot.workers) {
    busy += worker.busy_ns;
    tasks += worker.tasks;
  }
  EXPECT_GT(busy, 0u);
  EXPECT_GT(tasks, 0u);

  ASSERT_EQ(snapshot.regions.size(), 1u);
  const PoolRegionStats& region = snapshot.regions[0];
  EXPECT_EQ(region.label, "sched.region");
  EXPECT_EQ(region.invocations, 1u);
  EXPECT_EQ(region.chunks, 4u);  // grain 1, 4 items
  EXPECT_GT(region.wall_ns, 0u);
  EXPECT_GT(region.chunk_sum_ns, 0u);
  EXPECT_GE(region.chunk_max_ns, region.chunk_min_ns);
  EXPECT_GT(region.chunk_min_ns, 0u);
  // Each of the two claim loops ends on one claim past the range.
  EXPECT_EQ(region.claim_attempts, region.chunks + 2);
  EXPECT_GT(region.merge_ns, 0u);
  // Load balance is max/mean in permille: >= 1000 by construction.
  EXPECT_GE(region.max_imbalance_permille, 1000u);
  EXPECT_GT(region.SerialFractionPermille(), 0u);
  EXPECT_LT(region.SerialFractionPermille(), 1000u);
  // One multi-chunk invocation -> one imbalance observation.
  EXPECT_EQ(snapshot.imbalance_permille.count, 1u);
}

TEST(ThreadPoolSchedStatsTest, DynamicClaimsCountEveryAttempt) {
  ScopedSchedStats stats(true);
  ThreadPool pool(2);
  ThreadPool::ParallelFor(&pool, "sched.dynamic", 64, 1,
                          [](size_t, size_t) {});
  const PoolSchedSnapshot snapshot = pool.SchedSnapshot();
  ASSERT_EQ(snapshot.regions.size(), 1u);
  const PoolRegionStats& region = snapshot.regions[0];
  EXPECT_GT(region.chunks, 1u);
  // Every cursor fetch_add counts, including the over-run claims that
  // lose the race past the end of the range.
  EXPECT_GE(region.claim_attempts, region.chunks);
}

TEST(ThreadPoolSchedStatsTest, InlineSingleChunkIsStillARegion) {
  ScopedSchedStats stats(true);
  ThreadPool pool(4);
  // 3 items < grain 100: runs inline on the caller.
  ThreadPool::ParallelFor(&pool, "sched.inline", 3, 100,
                          [](size_t, size_t) {});
  const PoolSchedSnapshot snapshot = pool.SchedSnapshot();
  ASSERT_EQ(snapshot.regions.size(), 1u);
  const PoolRegionStats& region = snapshot.regions[0];
  EXPECT_EQ(region.label, "sched.inline");
  EXPECT_EQ(region.invocations, 1u);
  EXPECT_EQ(region.chunks, 1u);
  EXPECT_EQ(region.claim_attempts, 1u);
}

TEST(ThreadPoolSchedStatsTest, UnlabeledRegionsFoldUnderDefaultLabel) {
  ScopedSchedStats stats(true);
  ThreadPool pool(2);
  ThreadPool::ParallelFor(&pool, nullptr, 16, 1, [](size_t, size_t) {});
  ThreadPool::ParallelFor(&pool, nullptr, 16, 1, [](size_t, size_t) {});
  const PoolSchedSnapshot snapshot = pool.SchedSnapshot();
  ASSERT_EQ(snapshot.regions.size(), 1u);
  EXPECT_EQ(snapshot.regions[0].label, "parallel_for");
  EXPECT_EQ(snapshot.regions[0].invocations, 2u);
}

TEST(ThreadPoolSchedStatsTest, ChunkedModesStayThreadCountInvariant) {
  // The acceptance bar for the accounting: bit-identical results across
  // thread counts and grains with accounting ON — the observability
  // layer must never perturb the chunk plan or the data.
  ScopedSchedStats stats(true);
  const auto reference = RunSlots(1, 1);
  for (const size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{0}}) {
    for (const size_t grain : {size_t{1}, size_t{7}, size_t{512}}) {
      EXPECT_EQ(RunSlots(threads, grain), reference)
          << "threads=" << threads << " grain=" << grain;
    }
  }
}

}  // namespace
}  // namespace prodsyn
