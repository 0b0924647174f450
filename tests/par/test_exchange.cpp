#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "comm/world.hpp"
#include "par/exchange.hpp"
#include "pic/init.hpp"
#include "pic/mover.hpp"
#include "pic/tiling.hpp"
#include "pic/verify.hpp"

namespace {

using picprk::comm::Cart2D;
using picprk::comm::Comm;
using picprk::comm::World;
using picprk::par::Decomposition2D;
using picprk::par::exchange_particles;
using picprk::pic::GridSpec;
using picprk::pic::InitParams;
using picprk::pic::Initializer;
using picprk::pic::Particle;

TEST(Exchange, RoutesDisplacedParticlesToOwners) {
  const int p = 4;
  World world(p);
  world.run([](Comm& comm) {
    GridSpec grid(16, 1.0);
    Cart2D cart(comm.size());
    Decomposition2D decomp(grid, cart);
    const auto block = decomp.block_of(comm.rank());

    InitParams params;
    params.grid = grid;
    params.total_particles = 800;
    const Initializer init(params);
    auto mine = init.create_block(block.x0, block.x1, block.y0, block.y1);
    const std::uint64_t local_before = mine.size();

    // Shift every particle 5 cells right (wrapped): most leave the block.
    for (auto& particle : mine) particle.x = picprk::pic::wrap(particle.x + 5.0, 16.0);

    const auto stats = exchange_particles(comm, decomp, mine);

    // Global particle count is conserved.
    const std::uint64_t total_after = comm.allreduce_value<std::uint64_t>(
        mine.size(), [](std::uint64_t a, std::uint64_t b) { return a + b; });
    const std::uint64_t total_before = comm.allreduce_value<std::uint64_t>(
        local_before, [](std::uint64_t a, std::uint64_t b) { return a + b; });
    EXPECT_EQ(total_after, total_before);

    // Everything this rank holds is in its block (also asserted inside).
    for (const auto& particle : mine) {
      EXPECT_TRUE(block.contains_cell(grid.cell_of(particle.x), grid.cell_of(particle.y)));
    }

    // Id checksum is conserved.
    std::uint64_t local_sum = 0;
    for (const auto& particle : mine) local_sum += particle.id;
    const std::uint64_t sum = comm.allreduce_value<std::uint64_t>(
        local_sum, [](std::uint64_t a, std::uint64_t b) { return a + b; });
    EXPECT_EQ(sum, picprk::pic::expected_checksum(init.total()));
    (void)stats;
  });
}

TEST(Exchange, NoMovementMeansNoTraffic) {
  World world(4);
  world.run([](Comm& comm) {
    GridSpec grid(8, 1.0);
    Cart2D cart(comm.size());
    Decomposition2D decomp(grid, cart);
    const auto block = decomp.block_of(comm.rank());

    InitParams params;
    params.grid = grid;
    params.total_particles = 200;
    const Initializer init(params);
    auto mine = init.create_block(block.x0, block.x1, block.y0, block.y1);

    const auto stats = exchange_particles(comm, decomp, mine);
    EXPECT_EQ(stats.sent, 0u);
    EXPECT_EQ(stats.received, 0u);
  });
}

TEST(Exchange, LongJumpsRouteAcrossMultipleRanks) {
  // A 1-wide process grid in x: moving +9 cells crosses two owners.
  World world(3);
  world.run([](Comm& comm) {
    GridSpec grid(12, 1.0);
    Cart2D cart(3, 1);
    Decomposition2D decomp(grid, cart);
    const auto block = decomp.block_of(comm.rank());

    std::vector<Particle> mine;
    if (comm.rank() == 0) {
      Particle p;
      p.x = 0.5;
      p.y = 6.5;
      p.id = 7;
      mine.push_back(p);
      mine.back().x = picprk::pic::wrap(0.5 + 9.0, 12.0);  // lands in rank 2
    }
    const auto stats = exchange_particles(comm, decomp, mine);
    if (comm.rank() == 2) {
      ASSERT_EQ(mine.size(), 1u);
      EXPECT_EQ(mine.front().id, 7u);
    } else {
      EXPECT_TRUE(mine.empty());
    }
    (void)stats;
    (void)block;
  });
}

TEST(Exchange, WorkspaceReusePerformsNoSteadyStateAllocations) {
  // The zero-allocation contract of the hot path: drive steady,
  // stationary traffic (uniform particles hopping exact cell distances
  // every step) through a reused ExchangeBuffers workspace and assert
  // the growth counter stops moving once the buffers reach their
  // high-water marks.
  World world(4);
  world.run([](Comm& comm) {
    GridSpec grid(32, 1.0);
    Cart2D cart(comm.size());
    Decomposition2D decomp(grid, cart);
    const auto block = decomp.block_of(comm.rank());

    InitParams params;
    params.grid = grid;
    params.total_particles = 8000;
    params.distribution = picprk::pic::Uniform{};
    params.k = 1;
    params.m = 1;
    const Initializer init(params);
    auto mine = init.create_block(block.x0, block.x1, block.y0, block.y1);

    const picprk::pic::AlternatingColumnCharges charges;
    picprk::par::ExchangeBuffers buffers;
    const std::uint32_t warmup = 10, steady = 30;
    for (std::uint32_t s = 0; s < warmup; ++s) {
      picprk::pic::move_all(std::span<Particle>(mine), grid, charges, params.dt);
      exchange_particles(comm, decomp, mine, buffers);
    }
    const std::uint64_t after_warmup = buffers.allocations();
    std::uint64_t traffic = 0;
    for (std::uint32_t s = 0; s < steady; ++s) {
      picprk::pic::move_all(std::span<Particle>(mine), grid, charges, params.dt);
      traffic += exchange_particles(comm, decomp, mine, buffers).sent;
    }
    EXPECT_GT(traffic, 0u) << "test must actually exercise the send path";
    EXPECT_EQ(buffers.allocations(), after_warmup)
        << "steady-state exchange must reuse the workspace";
  });
}

TEST(Exchange, WorkspaceAndThrowawayOverloadsAgree) {
  // Same traffic through a reused workspace and through the throwaway
  // convenience overload: identical particle sets, identical order
  // (keepers first in original order, then immigrants by source rank).
  World world(4);
  world.run([](Comm& comm) {
    GridSpec grid(16, 1.0);
    Cart2D cart(comm.size());
    Decomposition2D decomp(grid, cart);
    const auto block = decomp.block_of(comm.rank());

    InitParams params;
    params.grid = grid;
    params.total_particles = 1200;
    params.distribution = picprk::pic::Geometric{0.95};
    const Initializer init(params);
    auto with_workspace = init.create_block(block.x0, block.x1, block.y0, block.y1);
    auto throwaway = with_workspace;
    for (auto& particle : with_workspace)
      particle.x = picprk::pic::wrap(particle.x + 3.0, grid.length());
    for (auto& particle : throwaway)
      particle.x = picprk::pic::wrap(particle.x + 3.0, grid.length());

    picprk::par::ExchangeBuffers buffers;
    const auto a = exchange_particles(comm, decomp, with_workspace, buffers);
    const auto b = exchange_particles(comm, decomp, throwaway);

    EXPECT_EQ(a.sent, b.sent);
    EXPECT_EQ(a.received, b.received);
    ASSERT_EQ(with_workspace.size(), throwaway.size());
    for (std::size_t i = 0; i < with_workspace.size(); ++i) {
      EXPECT_EQ(with_workspace[i].id, throwaway[i].id);
      EXPECT_EQ(with_workspace[i].x, throwaway[i].x);
      EXPECT_EQ(with_workspace[i].y, throwaway[i].y);
    }
  });
}

TEST(Exchange, ByteAccountingMatchesTraffic) {
  World world(2);
  world.run([](Comm& comm) {
    GridSpec grid(8, 1.0);
    Cart2D cart(2, 1);
    Decomposition2D decomp(grid, cart);

    std::vector<Particle> mine;
    if (comm.rank() == 0) {
      for (int i = 0; i < 10; ++i) {
        Particle p;
        p.x = 6.5;  // belongs to rank 1
        p.y = 0.5;
        p.id = static_cast<std::uint64_t>(i + 1);
        mine.push_back(p);
      }
    }
    const auto stats = exchange_particles(comm, decomp, mine);
    if (comm.rank() == 0) {
      EXPECT_EQ(stats.sent, 10u);
      EXPECT_EQ(stats.bytes, 10u * sizeof(Particle));
    } else {
      EXPECT_EQ(stats.received, 10u);
    }
  });
}

TEST(Exchange, TiledSoAMatchesAoS) {
  // The SoA overload decides ownership per tile and fills emigrant holes
  // from the end of the tiled region, so its keeper order differs from
  // the AoS overload's — but each rank must hold the same particles with
  // the same state, report the same traffic, and leave a valid index.
  // Three steps run on a fresh index (the tail holds the immigrants of
  // the step before); the fourth exchange runs on a dirty index.
  World world(4);
  world.run([](Comm& comm) {
    GridSpec grid(64, 1.0);
    Cart2D cart(comm.size());
    Decomposition2D decomp(grid, cart);
    const auto block = decomp.block_of(comm.rank());

    InitParams params;
    params.grid = grid;
    params.total_particles = 16000;
    params.distribution = picprk::pic::Uniform{};
    params.m = 1;  // one cell right and one up per step: three destinations
    const Initializer init(params);
    std::vector<Particle> aos = init.create_block(block.x0, block.x1, block.y0, block.y1);
    picprk::pic::ParticleSoA soa = picprk::pic::to_soa(aos);
    picprk::pic::TileIndex tiles(block);

    const picprk::pic::AlternatingColumnCharges charges;
    picprk::par::ExchangeBuffers aos_buffers, soa_buffers;
    const auto by_id = [](std::vector<Particle> records) {
      std::sort(records.begin(), records.end(),
                [](const Particle& a, const Particle& b) { return a.id < b.id; });
      return records;
    };
    for (int step = 0; step < 4; ++step) {
      picprk::pic::move_all(std::span<Particle>(aos), grid, charges, params.dt);
      picprk::pic::move_all_tiled(soa, tiles, grid, charges, params.dt);
      const bool fresh = step < 3;
      if (fresh) {
        ASSERT_TRUE(tiles.fresh()) << "a uniform hop keeps every tile whole";
        if (step > 0) {
          ASSERT_LT(tiles.tail_begin(), soa.size())
              << "the tail holds last step's immigrants";
        }
      } else {
        tiles.mark_dirty();
      }

      const auto a = exchange_particles(comm, decomp, aos, aos_buffers);
      const auto b = exchange_particles(comm, decomp, soa, tiles, soa_buffers);

      EXPECT_GT(a.sent, 0u);
      EXPECT_EQ(a.sent, b.sent);
      EXPECT_EQ(a.received, b.received);
      EXPECT_EQ(a.bytes, b.bytes);
      EXPECT_EQ(tiles.fresh(), fresh);
      if (fresh) {
        EXPECT_TRUE(tiles.check(soa, grid));
      }
      const std::vector<Particle> want = by_id(aos);
      const std::vector<Particle> got = by_id(picprk::pic::to_aos(soa));
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(got[i].id, want[i].id);
        EXPECT_EQ(got[i].x, want[i].x);
        EXPECT_EQ(got[i].y, want[i].y);
        EXPECT_EQ(got[i].vx, want[i].vx);
        EXPECT_EQ(got[i].vy, want[i].vy);
      }
    }
  });
}

}  // namespace
