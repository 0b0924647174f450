// The §IV-B alternative (8-neighbor, non-rectangular) scheme: must be
// correct (verification), must balance, and must exhibit the drawback
// the paper cites — growing subdomain perimeter (fragmentation) compared
// to the rectangular two-phase scheme.
#include <gtest/gtest.h>

#include "comm/world.hpp"
#include "par/block.hpp"
#include "par/irregular.hpp"

namespace {

using picprk::comm::Cart2D;
using picprk::comm::Comm;
using picprk::comm::World;
using picprk::par::CellOwnerMap;
using picprk::par::DriverConfig;
using picprk::par::IrregularParams;
using picprk::par::irregular_lb_pass;
using picprk::par::run_irregular;
using picprk::pic::Geometric;
using picprk::pic::GridSpec;

TEST(CellOwnerMapTest, InitialRectangularOwnership) {
  GridSpec grid(12, 1.0);
  Cart2D cart(2, 2);
  CellOwnerMap map(grid, cart);
  EXPECT_EQ(map.owner(0, 0), 0);
  EXPECT_EQ(map.owner(11, 0), 1);
  EXPECT_EQ(map.owner(0, 11), 2);
  EXPECT_EQ(map.owner(11, 11), 3);
  EXPECT_EQ(map.count_owned(0), 36);
  // 2×2 blocks of 6×6 on a 12² torus: 4 boundary lines each way, 12
  // cells long: perimeter = 4 · 12 = 48.
  EXPECT_EQ(map.total_perimeter(), 48);
}

TEST(CellOwnerMapTest, PeriodicIndexing) {
  GridSpec grid(8, 1.0);
  Cart2D cart(2, 1);
  CellOwnerMap map(grid, cart);
  EXPECT_EQ(map.owner(-1, 0), map.owner(7, 0));
  EXPECT_EQ(map.owner(8, 3), map.owner(0, 3));
}

TEST(CellOwnerMapTest, BorderCellsDetectsEdges) {
  GridSpec grid(8, 1.0);
  Cart2D cart(2, 1);
  CellOwnerMap map(grid, cart);
  const auto border = map.border_cells(0);
  // Rank 0 owns columns 0..3; with periodic wrap, columns 0 and 3 are
  // borders: 2 columns × 8 rows.
  EXPECT_EQ(border.size(), 16u);
}

TEST(IrregularLbPass, MovesCellsFromLoadedToLight) {
  GridSpec grid(12, 1.0);
  Cart2D cart(2, 1);
  CellOwnerMap map(grid, cart);
  IrregularParams params;
  params.threshold = 0.05;
  params.quota = 100;
  const std::int64_t before = map.count_owned(0);
  const auto moved = irregular_lb_pass(map, {1000.0, 10.0}, params);
  EXPECT_GT(moved, 0);
  EXPECT_LT(map.count_owned(0), before);
  EXPECT_EQ(map.count_owned(0) + map.count_owned(1), 144);
}

TEST(IrregularLbPass, BalancedLoadsUntouched) {
  GridSpec grid(12, 1.0);
  Cart2D cart(2, 2);
  CellOwnerMap map(grid, cart);
  IrregularParams params;
  EXPECT_EQ(irregular_lb_pass(map, {100, 100, 100, 100}, params), 0);
  EXPECT_EQ(map.total_perimeter(), 48);
}

TEST(IrregularLbPass, Deterministic) {
  GridSpec grid(12, 1.0);
  Cart2D cart(2, 2);
  CellOwnerMap a(grid, cart), b(grid, cart);
  IrregularParams params;
  irregular_lb_pass(a, {500, 100, 100, 100}, params);
  irregular_lb_pass(b, {500, 100, 100, 100}, params);
  for (std::int64_t cy = 0; cy < 12; ++cy) {
    for (std::int64_t cx = 0; cx < 12; ++cx) {
      EXPECT_EQ(a.owner(cx, cy), b.owner(cx, cy));
    }
  }
}

class IrregularRanks : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(RankCounts, IrregularRanks, ::testing::Values(2, 4, 6),
                         [](const auto& info) { return "p" + std::to_string(info.param); });

TEST_P(IrregularRanks, SkewedWorkloadVerifies) {
  World world(GetParam());
  world.run([](Comm& comm) {
    DriverConfig cfg;
    cfg.init.grid = GridSpec(24, 1.0);
    cfg.init.total_particles = 1500;
    cfg.init.distribution = Geometric{0.85};
    cfg.steps = 40;
    IrregularParams params;
    params.frequency = 4;
    params.threshold = 0.05;
    params.quota = 6;
    const auto r = run_irregular(comm, cfg, params);
    EXPECT_TRUE(r.driver.ok) << "failures=" << r.driver.verification.position_failures;
  });
}

TEST(Irregular, ImprovesBalanceButFragments) {
  // The paper's trade-off in one test: the 8-neighbor scheme balances
  // (like the rectangular diffusion) but its subdomain perimeter grows,
  // while the rectangular scheme's stays at the rectangular value.
  World world(4);
  world.run([](Comm& comm) {
    picprk::par::RunConfig cfg;
    cfg.init.grid = GridSpec(32, 1.0);
    cfg.init.total_particles = 4000;
    cfg.init.distribution = Geometric{0.8};
    cfg.steps = 60;
    cfg.sample_every = 5;
    cfg.lb.every = 0;  // baseline: static bounds

    const auto base = picprk::par::run_block(comm, cfg);

    IrregularParams params;
    params.frequency = 4;
    params.threshold = 0.05;
    params.quota = 8;
    const auto irr = run_irregular(comm, cfg, params);

    ASSERT_TRUE(base.ok);
    ASSERT_TRUE(irr.driver.ok);

    auto mean = [](const std::vector<double>& v) {
      double s = 0;
      for (double x : v) s += x;
      return s / static_cast<double>(v.size());
    };
    // It balances…
    EXPECT_LT(mean(irr.driver.imbalance_series), mean(base.imbalance_series));
    // …but fragments: the perimeter grows beyond the rectangular value.
    EXPECT_GT(irr.final_perimeter, irr.initial_perimeter);
  });
}

TEST(Irregular, EventsVerify) {
  World world(4);
  world.run([](Comm& comm) {
    DriverConfig cfg;
    cfg.init.grid = GridSpec(20, 1.0);
    cfg.init.total_particles = 800;
    cfg.steps = 30;
    cfg.events = picprk::pic::EventSchedule(
        {picprk::pic::InjectionEvent{10, picprk::pic::CellRegion{0, 10, 0, 10}, 300}},
        {picprk::pic::RemovalEvent{20, picprk::pic::CellRegion{10, 20, 0, 20}, 0.5}});
    IrregularParams params;
    params.frequency = 6;
    EXPECT_TRUE(run_irregular(comm, cfg, params).driver.ok);
  });
}

}  // namespace
