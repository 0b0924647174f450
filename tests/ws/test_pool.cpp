#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "ws/pool.hpp"

namespace {

using picprk::ws::PoolStats;
using picprk::ws::WorkStealingPool;

/// Blockwise deal: contiguous task ranges per worker (task t starts on
/// worker t·W/count).
std::vector<int> blockwise(std::size_t count, int workers) {
  std::vector<int> owners(count);
  for (std::size_t t = 0; t < count; ++t) {
    owners[t] = static_cast<int>(t * static_cast<std::size_t>(workers) / count);
  }
  return owners;
}

TEST(PoolTest, EveryTaskRunsExactlyOnce) {
  WorkStealingPool pool(2);
  std::vector<std::atomic<int>> executed(100);
  const PoolStats stats = pool.run_placed(
      100, blockwise(100, 2), [&](std::size_t t, int) { executed[t].fetch_add(1); });
  EXPECT_EQ(stats.tasks, 100u);
  for (const auto& e : executed) EXPECT_EQ(e.load(), 1);
}

TEST(PoolTest, ZeroTasksIsNoop) {
  WorkStealingPool pool(2);
  const PoolStats stats = pool.run_placed(0, {}, [](std::size_t, int) { FAIL(); });
  EXPECT_EQ(stats.tasks, 0u);
  EXPECT_EQ(stats.steals, 0u);
}

TEST(PoolTest, SingleWorkerRunsInline) {
  WorkStealingPool pool(1);
  int count = 0;
  const PoolStats stats = pool.run_placed(10, blockwise(10, 1), [&](std::size_t, int w) {
    EXPECT_EQ(w, 0);
    ++count;
  });
  EXPECT_EQ(count, 10);
  EXPECT_EQ(stats.steals, 0u);
  EXPECT_EQ(stats.executed_per_worker[0], 10u);
}

TEST(PoolTest, StealingBalancesSkewedTaskCosts) {
  // First half of the tasks is 50x more expensive; the second worker
  // must steal some of them.
  WorkStealingPool pool(2);
  const PoolStats stats = pool.run_placed(40, blockwise(40, 2), [&](std::size_t t, int) {
    const int spins = t < 20 ? 200000 : 4000;
    volatile double x = 1.0;
    for (int i = 0; i < spins; ++i) x = x * 1.0000001;
    (void)x;
  });
  EXPECT_GT(stats.steals, 0u);
  // Both workers executed something.
  EXPECT_GT(stats.executed_per_worker[0], 0u);
  EXPECT_GT(stats.executed_per_worker[1], 0u);
}

TEST(PoolTest, StaticScheduleNeverSteals) {
  WorkStealingPool pool(2);
  const PoolStats stats = pool.run_placed(
      40, blockwise(40, 2),
      [&](std::size_t t, int) {
        volatile double x = 1.0;
        for (int i = 0; i < (t < 20 ? 100000 : 1000); ++i) x = x * 1.0000001;
        (void)x;
      },
      /*allow_steal=*/false);
  EXPECT_EQ(stats.steals, 0u);
  EXPECT_EQ(stats.executed_per_worker[0], 20u);
  EXPECT_EQ(stats.executed_per_worker[1], 20u);
}

TEST(PoolTest, TaskExceptionPropagates) {
  WorkStealingPool pool(2);
  EXPECT_THROW(pool.run_placed(10, blockwise(10, 2),
                               [](std::size_t t, int) {
                                 if (t == 3) throw std::runtime_error("task boom");
                               }),
               std::runtime_error);
}

TEST(PoolTest, EveryOtherTaskOfABatchRunsAfterOneThrows) {
  // Each worker owns four sleeping tasks and pops its own deque from the
  // back, so worker 0 meets the throwing task 3 first, before any of its
  // other tasks. The batch must still run all seven others, with and
  // without stealing, and only then rethrow.
  using namespace std::chrono_literals;
  WorkStealingPool pool(2);
  for (const bool steal : {false, true}) {
    std::vector<std::atomic<int>> executed(8);
    EXPECT_THROW(pool.run_placed(
                     8, blockwise(8, 2),
                     [&](std::size_t t, int) {
                       if (t == 3) throw std::runtime_error("task boom");
                       std::this_thread::sleep_for(2ms);
                       executed[t].fetch_add(1);
                     },
                     steal),
                 std::runtime_error);
    for (std::size_t t = 0; t < executed.size(); ++t) {
      EXPECT_EQ(executed[t].load(), t == 3 ? 0 : 1) << "task " << t << " steal=" << steal;
    }
  }
}

TEST(PoolTest, WorkerIndexInRange) {
  WorkStealingPool pool(3);
  std::atomic<bool> ok{true};
  pool.run_placed(60, blockwise(60, 3), [&](std::size_t, int w) {
    if (w < 0 || w >= 3) ok = false;
  });
  EXPECT_TRUE(ok.load());
}

TEST(PoolTest, ManyTasksComplete) {
  WorkStealingPool pool(4);
  std::atomic<std::uint64_t> sum{0};
  const PoolStats stats =
      pool.run_placed(5000, blockwise(5000, 4), [&](std::size_t t, int) {
        sum.fetch_add(t, std::memory_order_relaxed);
      });
  EXPECT_EQ(sum.load(), 5000ull * 4999 / 2);
  std::uint64_t executed = 0;
  for (auto e : stats.executed_per_worker) executed += e;
  EXPECT_EQ(executed, 5000u);
}

}  // namespace
