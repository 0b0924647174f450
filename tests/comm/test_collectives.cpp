#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

#include "comm/comm.hpp"
#include "comm/world.hpp"

namespace {

using picprk::comm::Comm;
using picprk::comm::World;

// Collectives are exercised at several rank counts, including non-powers
// of two, since the binomial/dissemination algorithms branch on that.
class Collectives : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(RankCounts, Collectives, ::testing::Values(1, 2, 3, 4, 5, 7, 8),
                         [](const auto& info) {
                           return "p" + std::to_string(info.param);
                         });

TEST_P(Collectives, BarrierSynchronizes) {
  const int p = GetParam();
  World world(p);
  std::atomic<int> arrived{0};
  world.run([&](Comm& comm) {
    arrived.fetch_add(1);
    comm.barrier();
    // After the barrier every rank must have arrived.
    EXPECT_EQ(arrived.load(), p);
    comm.barrier();
  });
}

TEST_P(Collectives, BcastFromEveryRoot) {
  const int p = GetParam();
  World world(p);
  world.run([p](Comm& comm) {
    for (int root = 0; root < p; ++root) {
      std::vector<int> data;
      if (comm.rank() == root) data = {root * 10, root * 10 + 1};
      comm.bcast(data, root);
      ASSERT_EQ(data.size(), 2u);
      EXPECT_EQ(data[0], root * 10);
      EXPECT_EQ(data[1], root * 10 + 1);
    }
  });
}

TEST_P(Collectives, ReduceSumToEveryRoot) {
  const int p = GetParam();
  World world(p);
  world.run([p](Comm& comm) {
    for (int root = 0; root < p; ++root) {
      const std::vector<std::int64_t> mine{comm.rank() + 1, 2 * (comm.rank() + 1)};
      auto result = comm.reduce(std::span<const std::int64_t>(mine),
                                [](std::int64_t a, std::int64_t b) { return a + b; }, root);
      const std::int64_t expected = static_cast<std::int64_t>(p) * (p + 1) / 2;
      if (comm.rank() == root) {
        ASSERT_EQ(result.size(), 2u);
        EXPECT_EQ(result[0], expected);
        EXPECT_EQ(result[1], 2 * expected);
      } else {
        EXPECT_TRUE(result.empty());
      }
    }
  });
}

TEST_P(Collectives, AllreduceSumAndMax) {
  const int p = GetParam();
  World world(p);
  world.run([p](Comm& comm) {
    const std::int64_t expected_sum = static_cast<std::int64_t>(p) * (p - 1) / 2;
    const auto sum = comm.allreduce_value<std::int64_t>(
        comm.rank(), [](std::int64_t a, std::int64_t b) { return a + b; });
    EXPECT_EQ(sum, expected_sum);

    const auto mx = comm.allreduce_value<std::int64_t>(
        comm.rank(), [](std::int64_t a, std::int64_t b) { return a > b ? a : b; });
    EXPECT_EQ(mx, p - 1);
  });
}

TEST_P(Collectives, AlltoallVariableExchange) {
  const int p = GetParam();
  World world(p);
  world.run([p](Comm& comm) {
    // Rank r sends to rank d a vector [r*100+d] repeated (d+1) times.
    std::vector<std::vector<int>> out(static_cast<std::size_t>(p));
    for (int d = 0; d < p; ++d) {
      out[static_cast<std::size_t>(d)].assign(static_cast<std::size_t>(d + 1),
                                              comm.rank() * 100 + d);
    }
    auto in = comm.alltoall(out);
    ASSERT_EQ(in.size(), static_cast<std::size_t>(p));
    for (int s = 0; s < p; ++s) {
      const auto& v = in[static_cast<std::size_t>(s)];
      ASSERT_EQ(v.size(), static_cast<std::size_t>(comm.rank() + 1));
      for (int val : v) EXPECT_EQ(val, s * 100 + comm.rank());
    }
  });
}

TEST_P(Collectives, RepeatedCollectivesStaySequenced) {
  const int p = GetParam();
  World world(p);
  world.run([](Comm& comm) {
    for (int iter = 0; iter < 20; ++iter) {
      const auto sum = comm.allreduce_value<int>(
          iter, [](int a, int b) { return a + b; });
      EXPECT_EQ(sum, iter * comm.size());
      comm.barrier();
    }
  });
}

TEST(CollectivesEdge, SingleRankCollectivesAreIdentity) {
  World world(1);
  world.run([](Comm& comm) {
    comm.barrier();
    std::vector<int> data{1, 2, 3};
    comm.bcast(data, 0);
    EXPECT_EQ(data.size(), 3u);
    const auto sum = comm.allreduce_value<int>(7, [](int a, int b) { return a + b; });
    EXPECT_EQ(sum, 7);
    const auto in = comm.alltoall(std::vector<std::vector<int>>{{9}});
    EXPECT_EQ(in, std::vector<std::vector<int>>{{9}});
  });
}

}  // namespace
