// Stress tests for threadcomm: message storms with random destinations,
// tags and sizes; interleaved collectives; conservation of every byte.
#include <gtest/gtest.h>

#include <map>
#include <numeric>

#include "comm/comm.hpp"
#include "comm/world.hpp"
#include "util/rng.hpp"

namespace {

using picprk::comm::Comm;
using picprk::comm::kAnySource;
using picprk::comm::kAnyTag;
using picprk::comm::Status;
using picprk::comm::World;
using picprk::util::SplitMix64;

TEST(CommStress, RandomMessageStormConservesEverything) {
  const int p = 6;
  const int messages_per_rank = 200;
  World world(p);
  world.run([p, messages_per_rank](Comm& comm) {
    SplitMix64 rng(1000 + static_cast<std::uint64_t>(comm.rank()));

    // Phase 1: everyone fires messages at random destinations. Payload
    // carries (source, sequence) so receivers can validate.
    std::uint64_t sent_sum = 0;
    std::vector<int> sent_to(static_cast<std::size_t>(p), 0);
    for (int i = 0; i < messages_per_rank; ++i) {
      const int dst = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(p)));
      const auto len = 1 + rng.next_below(64);
      std::vector<std::uint64_t> payload(len);
      for (auto& v : payload) v = rng.next();
      sent_sum += std::accumulate(payload.begin(), payload.end(), std::uint64_t{0});
      comm.send(payload, dst, /*tag=*/7);
      sent_to[static_cast<std::size_t>(dst)]++;
    }

    // Phase 2: tell everyone how many messages to expect from us.
    auto expected_counts = comm.alltoall(std::vector<std::vector<int>>{
        [&] {
          std::vector<std::vector<int>> out(static_cast<std::size_t>(p));
          for (int r = 0; r < p; ++r) out[static_cast<std::size_t>(r)] = {sent_to[static_cast<std::size_t>(r)]};
          return out;
        }()});

    int expected = 0;
    for (const auto& v : expected_counts) expected += v.at(0);

    std::uint64_t received_sum = 0;
    for (int i = 0; i < expected; ++i) {
      const auto payload = comm.recv<std::uint64_t>(kAnySource, 7);
      received_sum +=
          std::accumulate(payload.begin(), payload.end(), std::uint64_t{0});
    }

    // Global conservation: sum of all sent == sum of all received.
    const auto total_sent = comm.allreduce_value<std::uint64_t>(
        sent_sum, [](std::uint64_t a, std::uint64_t b) { return a + b; });
    const auto total_received = comm.allreduce_value<std::uint64_t>(
        received_sum, [](std::uint64_t a, std::uint64_t b) { return a + b; });
    EXPECT_EQ(total_sent, total_received);
  });
}

TEST(CommStress, ManyTagsMatchIndependently) {
  World world(2);
  world.run([](Comm& comm) {
    const int tags = 50;
    if (comm.rank() == 0) {
      // Send in one order...
      for (int t = 0; t < tags; ++t) comm.send_value(t * 11, 1, t);
    } else {
      // ...receive in the reverse order.
      for (int t = tags - 1; t >= 0; --t) {
        EXPECT_EQ(comm.recv_value<int>(0, t), t * 11);
      }
    }
  });
}

TEST(CommStress, InterleavedCollectivesAndP2P) {
  const int p = 4;
  World world(p);
  world.run([p](Comm& comm) {
    for (int round = 0; round < 30; ++round) {
      // P2P ring shift...
      comm.send_value(comm.rank() * 100 + round, (comm.rank() + 1) % p, 2);
      // ...interleaved with a collective before the matching receive.
      const int sum = comm.allreduce_value<int>(1, [](int a, int b) { return a + b; });
      EXPECT_EQ(sum, p);
      const int v = comm.recv_value<int>((comm.rank() + p - 1) % p, 2);
      EXPECT_EQ(v, ((comm.rank() + p - 1) % p) * 100 + round);
    }
  });
}

TEST(CommStress, LargePayloadRoundTrip) {
  World world(2);
  world.run([](Comm& comm) {
    const std::size_t n = 1 << 20;  // 8 MB of doubles
    if (comm.rank() == 0) {
      std::vector<double> big(n);
      for (std::size_t i = 0; i < n; ++i) big[i] = static_cast<double>(i) * 0.5;
      comm.send(big, 1, 0);
    } else {
      const auto big = comm.recv<double>(0, 0);
      ASSERT_EQ(big.size(), n);
      EXPECT_DOUBLE_EQ(big[12345], 12345 * 0.5);
      EXPECT_DOUBLE_EQ(big[n - 1], static_cast<double>(n - 1) * 0.5);
    }
  });
}

TEST(CommStress, RepeatedWorldRuns) {
  // One World object, many run() invocations (the figure benches do
  // this): no state may leak between runs.
  World world(3);
  for (int iteration = 0; iteration < 5; ++iteration) {
    world.run([iteration](Comm& comm) {
      const int sum = comm.allreduce_value<int>(
          comm.rank() + iteration, [](int a, int b) { return a + b; });
      EXPECT_EQ(sum, 3 + 3 * iteration);
    });
  }
}

}  // namespace
