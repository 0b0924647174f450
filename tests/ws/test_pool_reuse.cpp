// Multi-client reuse contract of the work-stealing pool
// (docs/SERVICE.md): the pool is a long-lived shared resource, so every
// run_placed() must leave it exactly as a fresh construction would — deques
// drained (even when a task threw), per-run stats from zero, placement
// honoured on the next batch. These tests pin the submit → drain →
// submit cycles the job server depends on.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
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

TEST(PoolReuseTest, BackToBackRunsEachCompleteAndStatsStartFromZero) {
  WorkStealingPool pool(3);
  for (int round = 0; round < 5; ++round) {
    std::atomic<std::uint64_t> sum{0};
    const std::size_t count = 90 + static_cast<std::size_t>(round) * 30;
    const PoolStats stats =
        pool.run_placed(count, blockwise(count, 3), [&](std::size_t t, int) {
          sum.fetch_add(t, std::memory_order_relaxed);
        });
    EXPECT_EQ(sum.load(), count * (count - 1) / 2);
    EXPECT_EQ(stats.tasks, count);  // not cumulative across rounds
    std::uint64_t executed = 0;
    for (auto e : stats.executed_per_worker) executed += e;
    EXPECT_EQ(executed, count);
  }
}

TEST(PoolReuseTest, RunAfterTaskExceptionExecutesEverything) {
  WorkStealingPool pool(2);
  EXPECT_THROW(pool.run_placed(50, blockwise(50, 2),
                               [](std::size_t t, int) {
                                 if (t == 7) throw std::runtime_error("tenant crash");
                               }),
               std::runtime_error);
  // The failed batch must not leak queued tasks into the next client's
  // run: the second batch executes its own tasks exactly once each.
  std::vector<std::atomic<int>> executed(64);
  const PoolStats stats = pool.run_placed(
      64, blockwise(64, 2), [&](std::size_t t, int) { executed[t].fetch_add(1); });
  EXPECT_EQ(stats.tasks, 64u);
  for (const auto& e : executed) EXPECT_EQ(e.load(), 1);
}

TEST(PoolReuseTest, RepeatedExceptionRoundsStayReusable) {
  WorkStealingPool pool(2);
  for (int round = 0; round < 3; ++round) {
    EXPECT_THROW(pool.run_placed(30, blockwise(30, 2),
                                 [](std::size_t t, int) {
                                   if (t % 10 == 3) throw std::runtime_error("boom");
                                 }),
                 std::runtime_error);
    std::atomic<int> count{0};
    pool.run_placed(30, blockwise(30, 2), [&](std::size_t, int) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 30);
  }
}

TEST(PoolReuseTest, PlacedRunHonoursOwnersWithoutStealing) {
  WorkStealingPool pool(3);
  // Deliberately unbalanced placement: worker 2 owns everything.
  std::vector<int> owners(12, 2);
  std::vector<std::atomic<int>> ran_on(12);
  const PoolStats stats = pool.run_placed(
      12, owners, [&](std::size_t t, int w) { ran_on[t].store(w); },
      /*allow_steal=*/false);
  EXPECT_EQ(stats.steals, 0u);
  EXPECT_EQ(stats.executed_per_worker[0], 0u);
  EXPECT_EQ(stats.executed_per_worker[1], 0u);
  EXPECT_EQ(stats.executed_per_worker[2], 12u);
  for (const auto& w : ran_on) EXPECT_EQ(w.load(), 2);
}

TEST(PoolReuseTest, PlacedRunWithStealingStillRunsEveryTaskOnce) {
  WorkStealingPool pool(4);
  std::vector<int> owners(200);
  for (std::size_t t = 0; t < owners.size(); ++t) {
    owners[t] = static_cast<int>(t % 2);  // leave workers 2 and 3 idle
  }
  std::vector<std::atomic<int>> executed(200);
  const PoolStats stats = pool.run_placed(
      200, owners,
      [&](std::size_t t, int) {
        volatile double x = 1.0;
        for (int i = 0; i < 20000; ++i) x = x * 1.0000001;
        (void)x;
        executed[t].fetch_add(1);
      },
      /*allow_steal=*/true);
  for (const auto& e : executed) EXPECT_EQ(e.load(), 1);
  std::uint64_t total = 0;
  for (auto e : stats.executed_per_worker) total += e;
  EXPECT_EQ(total, 200u);
}

TEST(PoolReuseTest, PlacedThenBlockwiseThenPlacedCycles) {
  // A server interleaving placement-driven cycles with blockwise runs
  // (two different clients of one pool) must see clean state each time.
  WorkStealingPool pool(2);
  std::vector<int> owners = {1, 1, 0, 0, 1, 0};
  std::atomic<int> count{0};
  pool.run_placed(6, owners, [&](std::size_t, int) { count.fetch_add(1); },
                  /*allow_steal=*/false);
  EXPECT_EQ(count.load(), 6);
  count.store(0);
  pool.run_placed(100, blockwise(100, 2), [&](std::size_t, int) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 100);
  count.store(0);
  const PoolStats stats = pool.run_placed(
      6, owners, [&](std::size_t, int) { count.fetch_add(1); },
      /*allow_steal=*/false);
  EXPECT_EQ(count.load(), 6);
  EXPECT_EQ(stats.executed_per_worker[0], 3u);
  EXPECT_EQ(stats.executed_per_worker[1], 3u);
}

TEST(PoolReuseTest, SingleWorkerPlacedRunsInline) {
  WorkStealingPool pool(1);
  std::vector<int> owners(8, 0);
  int count = 0;
  const PoolStats stats =
      pool.run_placed(8, owners, [&](std::size_t, int w) {
        EXPECT_EQ(w, 0);
        ++count;
      });
  EXPECT_EQ(count, 8);
  EXPECT_EQ(stats.executed_per_worker[0], 8u);
}

}  // namespace
