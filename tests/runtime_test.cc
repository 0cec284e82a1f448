// Tests for the runtime/ execution layer: ThreadPool lifecycle and
// draining, ParallelFor coverage/determinism, and the HDSKY_THREADS
// policy. These are the suites the TSan CI job leans on, so they
// deliberately drive real concurrency (8 workers, contended counters).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/parallel_for.h"
#include "runtime/thread_pool.h"

namespace hdsky {
namespace runtime {
namespace {

TEST(ThreadPoolTest, RunsAllSubmittedTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.WaitIdle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, ClampsThreadCountToAtLeastOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1);
  std::atomic<int> count{0};
  pool.Submit([&count] { count.fetch_add(1); });
  pool.WaitIdle();
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPoolTest, DestructorDrainsQueuedTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&count] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        count.fetch_add(1);
      });
    }
    // No WaitIdle: the destructor must drain the queue before joining.
  }
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPoolTest, WaitIdleReturnsWithEmptyQueue) {
  ThreadPool pool(4);
  pool.WaitIdle();  // no tasks: must not hang
  std::atomic<int> count{0};
  pool.Submit([&count] { count.fetch_add(1); });
  pool.WaitIdle();
  EXPECT_EQ(count.load(), 1);
  // Reusable after idling.
  pool.Submit([&count] { count.fetch_add(1); });
  pool.WaitIdle();
  EXPECT_EQ(count.load(), 2);
}

TEST(ThreadPoolTest, TasksActuallyRunConcurrently) {
  // With 8 workers and 8 tasks that all wait for each other, the only
  // way to finish is genuine parallelism (a serial pool would deadlock
  // the barrier; the generous timeout turns that into a test failure).
  constexpr int kTasks = 8;
  ThreadPool pool(kTasks);
  std::atomic<int> arrived{0};
  std::atomic<bool> timed_out{false};
  for (int i = 0; i < kTasks; ++i) {
    pool.Submit([&] {
      arrived.fetch_add(1);
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(30);
      while (arrived.load() < kTasks) {
        if (std::chrono::steady_clock::now() > deadline) {
          timed_out.store(true);
          break;
        }
        std::this_thread::yield();
      }
    });
  }
  pool.WaitIdle();
  EXPECT_FALSE(timed_out.load());
  EXPECT_EQ(arrived.load(), kTasks);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(8);
  constexpr int64_t kN = 10000;
  std::vector<std::atomic<int>> seen(kN);
  ParallelFor(pool, 0, kN, [&seen](int64_t i) {
    seen[static_cast<size_t>(i)].fetch_add(1);
  });
  for (int64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(seen[static_cast<size_t>(i)].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, EmptyAndSingletonRanges) {
  ThreadPool pool(4);
  int calls = 0;
  ParallelFor(pool, 5, 5, [&calls](int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  ParallelFor(pool, 7, 8, [&calls](int64_t i) {
    ++calls;
    EXPECT_EQ(i, 7);
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelForTest, SlotPerIndexIsDeterministicAcrossPoolSizes) {
  // The determinism contract: when every index writes only its own
  // slot, the result is identical for every pool size.
  constexpr int64_t kN = 257;
  auto run = [&](int threads) {
    std::vector<int64_t> out(kN);
    ParallelFor(threads, 0, kN,
                [&out](int64_t i) { out[static_cast<size_t>(i)] = i * i; });
    return out;
  };
  const std::vector<int64_t> serial = run(1);
  EXPECT_EQ(run(4), serial);
  EXPECT_EQ(run(8), serial);
}

TEST(ParallelForTest, UsesMultipleThreads) {
  ThreadPool pool(4);
  std::mutex mu;
  std::set<std::thread::id> ids;
  ParallelFor(pool, 0, 1000, [&](int64_t) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
    std::lock_guard<std::mutex> lock(mu);
    ids.insert(std::this_thread::get_id());
  });
  // Dynamic scheduling across 1000 slow iterations must engage more
  // than one worker.
  EXPECT_GT(ids.size(), 1u);
}

TEST(ThreadPolicyTest, HardwareThreadCountIsPositive) {
  EXPECT_GE(HardwareThreadCount(), 1);
}

TEST(ThreadPolicyTest, EnvThreadCountParsesOverrides) {
  // EnvThreadCount reads the live environment; exercise the parse paths
  // through setenv. (Tests run single-process, so this is race-free.)
  unsetenv("HDSKY_THREADS");
  EXPECT_EQ(EnvThreadCount(), 1);
  setenv("HDSKY_THREADS", "6", 1);
  EXPECT_EQ(EnvThreadCount(), 6);
  setenv("HDSKY_THREADS", "0", 1);
  EXPECT_EQ(EnvThreadCount(), HardwareThreadCount());
  setenv("HDSKY_THREADS", "-3", 1);
  EXPECT_EQ(EnvThreadCount(), 1);
  setenv("HDSKY_THREADS", "100000", 1);
  EXPECT_EQ(EnvThreadCount(), 256);
  unsetenv("HDSKY_THREADS");
}

}  // namespace
}  // namespace runtime
}  // namespace hdsky
