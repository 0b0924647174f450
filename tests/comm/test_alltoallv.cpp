// Property tests for the flat-buffer Comm::alltoallv (the hot-path
// counterpart of the vector-of-vectors alltoall). The send matrix is
// generated from a counter-based hash of (seed, src, dst), so every rank
// can independently recompute what every other rank sent it and assert
// the received slices element-for-element — no side-channel needed.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <span>
#include <thread>
#include <vector>

#include "comm/comm.hpp"
#include "comm/world.hpp"
#include "util/rng.hpp"

namespace {

using picprk::comm::BufferPool;
using picprk::comm::Comm;
using picprk::comm::World;
using picprk::util::SplitMix64;

/// Deterministic element count sent from `src` to `dst` for a given
/// seed; any rank can evaluate the full matrix.
std::uint64_t planned_count(std::uint64_t seed, int src, int dst, std::uint64_t max) {
  SplitMix64 rng(seed ^ (static_cast<std::uint64_t>(src) * 0x9E3779B97F4A7C15ull) ^
                 (static_cast<std::uint64_t>(dst) * 0xBF58476D1CE4E5B9ull));
  return rng.next_below(max + 1);
}

/// The j-th element `src` sends to `dst`: unique and recomputable.
std::uint64_t planned_element(int src, int dst, std::uint64_t j) {
  return (static_cast<std::uint64_t>(src) << 40) |
         (static_cast<std::uint64_t>(dst) << 20) | j;
}

/// Packs this rank's sends in destination order and runs alltoallv, then
/// checks the received counts and contents against the plan.
void run_planned_round(Comm& comm, std::uint64_t seed, std::uint64_t max_count,
                       BufferPool* pool) {
  const int p = comm.size();
  const int me = comm.rank();

  std::vector<std::uint64_t> send_counts(static_cast<std::size_t>(p));
  std::vector<std::uint64_t> send_data;
  for (int dst = 0; dst < p; ++dst) {
    const std::uint64_t c = planned_count(seed, me, dst, max_count);
    send_counts[static_cast<std::size_t>(dst)] = c;
    for (std::uint64_t j = 0; j < c; ++j) send_data.push_back(planned_element(me, dst, j));
  }

  std::vector<std::uint64_t> recv_data, recv_counts;
  comm.alltoallv(std::span<const std::uint64_t>(send_data),
                 std::span<const std::uint64_t>(send_counts), recv_data, recv_counts,
                 pool);

  ASSERT_EQ(recv_counts.size(), static_cast<std::size_t>(p));
  std::size_t offset = 0;
  for (int src = 0; src < p; ++src) {
    const std::uint64_t expected = planned_count(seed, src, me, max_count);
    ASSERT_EQ(recv_counts[static_cast<std::size_t>(src)], expected)
        << "count from rank " << src;
    for (std::uint64_t j = 0; j < expected; ++j) {
      ASSERT_EQ(recv_data[offset + j], planned_element(src, me, j))
          << "element " << j << " from rank " << src;
    }
    offset += expected;
  }
  ASSERT_EQ(recv_data.size(), offset);
}

TEST(Alltoallv, RandomCountsDeliverExactSlicesInSourceOrder) {
  World world(5);
  world.run([](Comm& comm) {
    BufferPool pool;
    for (std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
      run_planned_round(comm, seed, /*max_count=*/97, &pool);
    }
  });
}

TEST(Alltoallv, AllEmptyAndSelfOnlyRounds) {
  World world(4);
  world.run([](Comm& comm) {
    const auto p = static_cast<std::size_t>(comm.size());
    // All-empty: every count zero — pure envelope traffic.
    std::vector<std::uint64_t> counts(p, 0), data, recv_data, recv_counts;
    comm.alltoallv(std::span<const std::uint64_t>(data),
                   std::span<const std::uint64_t>(counts), recv_data, recv_counts);
    EXPECT_TRUE(recv_data.empty());
    for (const std::uint64_t c : recv_counts) EXPECT_EQ(c, 0u);

    // Self-only: everything stays local (the memcpy'd self slice).
    const auto me = static_cast<std::size_t>(comm.rank());
    counts.assign(p, 0);
    counts[me] = 10;
    data.resize(10);
    std::iota(data.begin(), data.end(), 100 * static_cast<std::uint64_t>(me));
    comm.alltoallv(std::span<const std::uint64_t>(data),
                   std::span<const std::uint64_t>(counts), recv_data, recv_counts);
    ASSERT_EQ(recv_data.size(), 10u);
    EXPECT_EQ(recv_counts[me], 10u);
    EXPECT_EQ(recv_data, data);
  });
}

TEST(Alltoallv, SinglePeerHeavyPreservesIdChecksum) {
  // Every rank ships its whole block of ids to one peer (rank+1 mod p):
  // maximally skewed traffic. Ids 1..N partitioned in contiguous blocks,
  // so the global sum must stay n(n+1)/2.
  const int p = 4;
  static constexpr std::uint64_t kPerRank = 5000;
  World world(p);
  world.run([](Comm& comm) {
    const int np = comm.size();
    const auto me = static_cast<std::uint64_t>(comm.rank());
    std::vector<std::uint64_t> data(kPerRank);
    std::iota(data.begin(), data.end(), me * kPerRank + 1);

    std::vector<std::uint64_t> counts(static_cast<std::size_t>(np), 0);
    counts[static_cast<std::size_t>((comm.rank() + 1) % np)] = kPerRank;

    std::vector<std::uint64_t> recv_data, recv_counts;
    comm.alltoallv(std::span<const std::uint64_t>(data),
                   std::span<const std::uint64_t>(counts), recv_data, recv_counts);

    ASSERT_EQ(recv_data.size(), kPerRank);
    const std::uint64_t local =
        std::accumulate(recv_data.begin(), recv_data.end(), std::uint64_t{0});
    const std::uint64_t global = comm.allreduce_value<std::uint64_t>(
        local, [](std::uint64_t a, std::uint64_t b) { return a + b; });
    const std::uint64_t n = kPerRank * static_cast<std::uint64_t>(np);
    EXPECT_EQ(global, n * (n + 1) / 2);
  });
}

TEST(Alltoallv, AgreesWithVectorOfVectorsAlltoall) {
  World world(4);
  world.run([](Comm& comm) {
    const int p = comm.size();
    const int me = comm.rank();
    const std::uint64_t seed = 77;

    // Same planned matrix through both collectives.
    std::vector<std::vector<std::uint64_t>> outgoing(static_cast<std::size_t>(p));
    std::vector<std::uint64_t> send_counts(static_cast<std::size_t>(p));
    std::vector<std::uint64_t> send_data;
    for (int dst = 0; dst < p; ++dst) {
      const std::uint64_t c = planned_count(seed, me, dst, 50);
      send_counts[static_cast<std::size_t>(dst)] = c;
      for (std::uint64_t j = 0; j < c; ++j) {
        const std::uint64_t e = planned_element(me, dst, j);
        outgoing[static_cast<std::size_t>(dst)].push_back(e);
        send_data.push_back(e);
      }
    }

    const auto incoming = comm.alltoall(outgoing);
    std::vector<std::uint64_t> recv_data, recv_counts;
    comm.alltoallv(std::span<const std::uint64_t>(send_data),
                   std::span<const std::uint64_t>(send_counts), recv_data, recv_counts);

    // Flattening alltoall's buckets in ascending source order must
    // reproduce alltoallv's single buffer exactly.
    std::vector<std::uint64_t> flattened;
    for (int src = 0; src < p; ++src) {
      const auto& bucket = incoming[static_cast<std::size_t>(src)];
      EXPECT_EQ(recv_counts[static_cast<std::size_t>(src)], bucket.size());
      flattened.insert(flattened.end(), bucket.begin(), bucket.end());
    }
    EXPECT_EQ(flattened, recv_data);
  });
}

TEST(Alltoallv, BufferPoolStopsAllocatingOnRepeatedRounds) {
  World world(4);
  world.run([](Comm& comm) {
    BufferPool pool;
    run_planned_round(comm, 9, 64, &pool);
    run_planned_round(comm, 9, 64, &pool);
    const std::uint64_t after_warmup = pool.allocations();
    for (int round = 0; round < 10; ++round) run_planned_round(comm, 9, 64, &pool);
    EXPECT_EQ(pool.allocations(), after_warmup)
        << "steady-state rounds must reuse pooled buffers";
  });
}

TEST(Alltoallv, BufferPoolMayChangeThreadsBetweenCalls) {
  // A VP acquires send staging in step() and releases delivered payloads
  // in deliver(), and the vpr runtime may run those on different
  // workers. Handing a pool from thread to thread between calls is legal
  // (only overlapping calls are a race), so an expensive-checks build
  // must accept it.
  BufferPool pool;
  std::vector<std::byte> staged;
  std::thread([&] { staged = pool.acquire(256); }).join();
  std::thread([&] { pool.release(std::move(staged)); }).join();
  EXPECT_EQ(pool.pooled(), 1u);
  EXPECT_EQ(pool.acquire(128).size(), 128u);
  EXPECT_EQ(pool.allocations(), 1u) << "the released buffer is reused";
}

}  // namespace
