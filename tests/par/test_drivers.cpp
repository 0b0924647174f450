// Integration tests: the parallel drivers must reproduce exactly
// what the serial specification produces — verified positions (Eqs. 5–6)
// and the id checksum — for every distribution, under real particle
// communication, boundary migration and VP migration.
#include <gtest/gtest.h>

#include "comm/world.hpp"
#include "lb/bounds.hpp"
#include "par/ampi.hpp"
#include "par/block.hpp"

namespace {

using picprk::comm::Comm;
using picprk::comm::World;
using picprk::par::DriverResult;
using picprk::par::RunConfig;
using picprk::par::run_ampi;
using picprk::par::run_block;
using picprk::pic::CellRegion;
using picprk::pic::ChargeSign;
using picprk::pic::EventSchedule;
using picprk::pic::Geometric;
using picprk::pic::GridSpec;
using picprk::pic::InjectionEvent;
using picprk::pic::RemovalEvent;
using picprk::pic::Sinusoidal;
using picprk::pic::Uniform;

RunConfig make_config(std::int64_t cells, std::uint64_t n, std::uint32_t steps) {
  RunConfig cfg;
  cfg.init.grid = GridSpec(cells, 1.0);
  cfg.init.total_particles = n;
  cfg.steps = steps;
  return cfg;
}

/// The baseline ("mpi-2d") configuration: the block driver with its
/// bounds left static.
RunConfig baseline(RunConfig cfg) {
  cfg.lb.every = 0;
  return cfg;
}

// ---------------------------------------------------------- baseline

class BaselineRanks : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(RankCounts, BaselineRanks, ::testing::Values(1, 2, 3, 4, 6),
                         [](const auto& info) { return "p" + std::to_string(info.param); });

TEST_P(BaselineRanks, UniformVerifies) {
  World world(GetParam());
  world.run([](Comm& comm) {
    auto cfg = make_config(24, 1200, 30);
    const DriverResult r = run_block(comm, baseline(cfg));
    EXPECT_TRUE(r.ok) << "failures=" << r.verification.position_failures
                      << " checksum=" << r.verification.id_checksum << "/"
                      << r.expected_id_checksum;
    EXPECT_EQ(r.verification.checked, r.final_particles);
  });
}

TEST_P(BaselineRanks, GeometricSkewVerifies) {
  World world(GetParam());
  world.run([](Comm& comm) {
    auto cfg = make_config(24, 1500, 40);
    cfg.init.distribution = Geometric{0.85};
    cfg.init.k = 1;
    cfg.init.m = 1;
    EXPECT_TRUE(run_block(comm, baseline(cfg)).ok);
  });
}

TEST(Baseline, EventsVerifyInParallel) {
  World world(4);
  world.run([](Comm& comm) {
    auto cfg = make_config(20, 800, 30);
    cfg.events = EventSchedule({InjectionEvent{10, CellRegion{5, 15, 5, 15}, 300}},
                               {RemovalEvent{20, CellRegion{0, 10, 0, 20}, 0.5}});
    const DriverResult r = run_block(comm, baseline(cfg));
    EXPECT_TRUE(r.ok);
  });
}

TEST(Baseline, RandomSignDistributionVerifies) {
  World world(4);
  world.run([](Comm& comm) {
    auto cfg = make_config(20, 900, 25);
    cfg.init.sign = ChargeSign::Random;
    cfg.init.m = -1;
    EXPECT_TRUE(run_block(comm, baseline(cfg)).ok);
  });
}

TEST(Baseline, ImbalanceSeriesShowsSkew) {
  World world(4);
  world.run([](Comm& comm) {
    auto cfg = make_config(24, 3000, 12);
    cfg.init.distribution = Geometric{0.7};
    cfg.sample_every = 4;
    const DriverResult r = run_block(comm, baseline(cfg));
    ASSERT_FALSE(r.imbalance_series.empty());
    // A strongly skewed distribution on a static decomposition starts
    // far out of balance (the cloud drifts right over time, so the first
    // sample is the cleanest observation).
    EXPECT_GT(r.imbalance_series.front(), 1.5);
    EXPECT_GT(r.max_particles_per_rank,
              static_cast<std::uint64_t>(r.ideal_particles_per_rank));
  });
}

/// Golden numbers of the baseline driver (cells 32, n 4000, geometric
/// 0.9, k 1, m 1, 40 steps, one injection and one removal, sample every
/// 5, 4 ranks), captured from the standalone mpi-2d driver before it was
/// folded into the block driver. The static-bounds path must reproduce
/// them bit for bit. checkpoint_bytes is deliberately not pinned.
TEST(GoldenPin, BaselineReproducesStandaloneDriver) {
  auto cfg = make_config(32, 4000, 40);
  cfg.init.distribution = Geometric{0.9};
  cfg.init.k = 1;
  cfg.init.m = 1;
  cfg.sample_every = 5;
  cfg.events = EventSchedule({InjectionEvent{10, CellRegion{4, 20, 4, 20}, 600}},
                             {RemovalEvent{25, CellRegion{0, 16, 0, 32}, 0.4}});
  DriverResult result;
  World world(4);
  world.run([&](Comm& comm) {
    const DriverResult r = run_block(comm, baseline(cfg));
    if (comm.rank() == 0) result = r;
  });
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.final_particles, 3778u);
  EXPECT_EQ(result.verification.id_checksum, 9419096u);
  EXPECT_EQ(result.particles_exchanged, 38515u);
  EXPECT_EQ(result.exchange_bytes, 3081200u);
  EXPECT_EQ(result.max_particles_per_rank, 1151u);
  EXPECT_EQ(result.lb_actions, 0u);
  const std::vector<double> expected = {
      1.580271766482134,  1.622546552591847,  1.6427480916030535,
      1.6776444929116685, 1.6680479825517993, 1.6040232927474853,
      1.4833245103229222, 1.6124933827421917};
  ASSERT_EQ(result.imbalance_series.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_DOUBLE_EQ(result.imbalance_series[i], expected[i]) << "sample " << i;
  }
}

// --------------------------------------------------------- diffusion

class DiffusionRanks : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(RankCounts, DiffusionRanks, ::testing::Values(2, 3, 4, 6),
                         [](const auto& info) { return "p" + std::to_string(info.param); });

TEST_P(DiffusionRanks, SkewedDistributionVerifies) {
  World world(GetParam());
  world.run([](Comm& comm) {
    auto cfg = make_config(24, 1500, 40);
    cfg.init.distribution = Geometric{0.8};
    cfg.lb.strategy = "diffusion:threshold=0.05";
    cfg.lb.every = 5;
    const DriverResult r = run_block(comm, cfg);
    EXPECT_TRUE(r.ok) << "failures=" << r.verification.position_failures;
  });
}

TEST(Diffusion, ImprovesBalanceOverBaseline) {
  World world(4);
  world.run([](Comm& comm) {
    auto cfg = make_config(32, 4000, 60);
    cfg.init.distribution = Geometric{0.8};
    const DriverResult base = run_block(comm, baseline(cfg));
    cfg.lb.strategy = "diffusion:threshold=0.05,border=1";
    cfg.lb.every = 4;
    const DriverResult diff = run_block(comm, cfg);
    EXPECT_TRUE(base.ok);
    EXPECT_TRUE(diff.ok);
    // The §V-B comparison: max particles per rank must improve.
    EXPECT_LT(diff.max_particles_per_rank, base.max_particles_per_rank);
    EXPECT_GT(diff.lb_actions, 0u);
    EXPECT_GT(diff.lb_bytes, 0u);
  });
}

TEST(Diffusion, TwoPhaseVerifies) {
  World world(4);
  world.run([](Comm& comm) {
    auto cfg = make_config(24, 2000, 40);
    // A patch in one corner stresses both directions.
    cfg.init.distribution = picprk::pic::Patch{CellRegion{0, 8, 0, 8}};
    cfg.lb.strategy = "diffusion:threshold=0.05,two_phase=1";
    cfg.lb.every = 5;
    const DriverResult r = run_block(comm, cfg);
    EXPECT_TRUE(r.ok);
  });
}

TEST(Diffusion, EventsAndLbTogether) {
  World world(4);
  world.run([](Comm& comm) {
    auto cfg = make_config(24, 1200, 40);
    cfg.init.distribution = Geometric{0.85};
    cfg.events = EventSchedule({InjectionEvent{12, CellRegion{16, 24, 0, 24}, 600}},
                               {RemovalEvent{25, CellRegion{0, 12, 0, 24}, 0.6}});
    cfg.lb.strategy = "diffusion:threshold=0.05";
    cfg.lb.every = 6;
    EXPECT_TRUE(run_block(comm, cfg).ok);
  });
}

TEST(Diffusion, WiderBorderVerifies) {
  World world(3);
  world.run([](Comm& comm) {
    auto cfg = make_config(30, 1500, 30);
    cfg.init.distribution = Geometric{0.8};
    cfg.lb.strategy = "diffusion:threshold=0.02,border=3";
    cfg.lb.every = 4;
    EXPECT_TRUE(run_block(comm, cfg).ok);
  });
}

TEST(Diffusion, RcbStrategyVerifies) {
  World world(4);
  world.run([](Comm& comm) {
    auto cfg = make_config(32, 3000, 40);
    cfg.init.distribution = Geometric{0.8};
    cfg.lb.strategy = "rcb";
    cfg.lb.every = 8;
    const DriverResult r = run_block(comm, cfg);
    EXPECT_TRUE(r.ok) << "failures=" << r.verification.position_failures;
  });
}

TEST(Diffusion, AdaptiveStrategyVerifies) {
  World world(4);
  world.run([](Comm& comm) {
    auto cfg = make_config(32, 3000, 40);
    cfg.init.distribution = Geometric{0.8};
    cfg.lb.strategy = "adaptive";
    cfg.lb.every = 8;
    EXPECT_TRUE(run_block(comm, cfg).ok);
  });
}

TEST(Diffusion, PlacementOnlyStrategyIsRejected) {
  World world(2);
  // World::run rethrows the first worker exception to the caller.
  EXPECT_THROW(world.run([](Comm& comm) {
    auto cfg = make_config(16, 400, 5);
    cfg.lb.strategy = "greedy";  // placement-only, cannot move bounds
    (void)run_block(comm, cfg);
  }),
               std::invalid_argument);
}

TEST(DiffuseBoundsFn, MovesTowardLighterSide) {
  using picprk::lb::diffuse_bounds;
  // Column 0 heavily loaded: boundary 1 must move left.
  const auto out = diffuse_bounds({0, 10, 20}, {1000.0, 10.0}, 100.0, 2);
  EXPECT_EQ(out, (std::vector<std::int64_t>{0, 8, 20}));
  // Balanced: no movement.
  EXPECT_EQ(diffuse_bounds({0, 10, 20}, {500.0, 505.0}, 100.0, 2),
            (std::vector<std::int64_t>{0, 10, 20}));
  // Column 1 loaded: boundary moves right.
  EXPECT_EQ(diffuse_bounds({0, 10, 20}, {10.0, 1000.0}, 100.0, 2),
            (std::vector<std::int64_t>{0, 12, 20}));
}

TEST(DiffuseBoundsFn, ClampKeepsBoundsValid) {
  using picprk::lb::diffuse_bounds;
  // Narrow columns: movement is clamped to keep widths >= 1 and to never
  // jump past the old adjacent boundary.
  const auto out = diffuse_bounds({0, 1, 2, 30}, {1000.0, 1000.0, 1.0}, 10.0, 5);
  for (std::size_t i = 1; i < out.size(); ++i) EXPECT_GT(out[i], out[i - 1]);
  EXPECT_EQ(out.front(), 0);
  EXPECT_EQ(out.back(), 30);
}

// -------------------------------------------------------------- ampi

class AmpiWorkers : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(WorkerCounts, AmpiWorkers, ::testing::Values(1, 2, 4),
                         [](const auto& info) { return "w" + std::to_string(info.param); });

TEST_P(AmpiWorkers, SkewedDistributionVerifies) {
  auto cfg = make_config(24, 1500, 40);
  cfg.init.distribution = Geometric{0.8};
  cfg.workers = GetParam();
  cfg.overdecomposition = 4;
  cfg.lb.every = 8;
  const DriverResult r = run_ampi(cfg);
  EXPECT_TRUE(r.ok) << "failures=" << r.verification.position_failures
                    << " checksum=" << r.verification.id_checksum << "/"
                    << r.expected_id_checksum;
}

TEST(Ampi, MigrationHappensAndStateSurvives) {
  auto cfg = make_config(24, 2500, 30);
  cfg.init.distribution = Geometric{0.7};
  cfg.workers = 2;
  cfg.overdecomposition = 8;
  cfg.lb.every = 5;
  const DriverResult r = run_ampi(cfg);
  EXPECT_TRUE(r.ok);
  EXPECT_GT(r.lb_actions, 0u);     // migrations occurred
  EXPECT_GT(r.lb_bytes, 0u);       // and carried PUPed state
}

TEST(Ampi, GreedyImprovesWorkerBalance) {
  auto cfg = make_config(32, 4000, 40);
  cfg.init.distribution = Geometric{0.75};
  // workers=4, d=2 gives 8 VPs on a 4×2 grid: each worker initially
  // holds half a VP row, so the column-skewed load lands on the workers
  // owning the left half — the imbalanced starting point the balancer
  // must fix. (With full VP rows per worker the placement would be
  // accidentally balanced for any y-uniform distribution.)
  RunConfig off = cfg;
  off.workers = 4;
  off.overdecomposition = 2;
  off.lb.every = 0;  // never balance
  off.sample_every = 2;
  RunConfig on = off;
  on.lb.every = 5;
  const DriverResult r_off = run_ampi(off);
  const DriverResult r_on = run_ampi(on);
  EXPECT_TRUE(r_off.ok);
  EXPECT_TRUE(r_on.ok);
  // Compare time-averaged imbalance: the end-of-run snapshot is noisy
  // because the cloud drifts between the last LB epoch and the end.
  auto mean = [](const std::vector<double>& v) {
    double s = 0;
    for (double x : v) s += x;
    return s / static_cast<double>(v.size());
  };
  ASSERT_FALSE(r_off.imbalance_series.empty());
  ASSERT_FALSE(r_on.imbalance_series.empty());
  EXPECT_LT(mean(r_on.imbalance_series), mean(r_off.imbalance_series));
}

TEST(Ampi, EventsVerify) {
  auto cfg = make_config(20, 800, 30);
  cfg.events = EventSchedule({InjectionEvent{8, CellRegion{0, 10, 0, 10}, 400}},
                             {RemovalEvent{20, CellRegion{10, 20, 0, 20}, 0.5}});
  cfg.workers = 2;
  cfg.overdecomposition = 4;
  cfg.lb.every = 6;
  EXPECT_TRUE(run_ampi(cfg).ok);
}

TEST(Ampi, AllPlacementBalancersVerify) {
  for (const char* balancer :
       {"null", "greedy", "refine", "diffusion", "rotate", "compact", "adaptive"}) {
    auto cfg = make_config(20, 900, 20);
    cfg.init.distribution = Sinusoidal{};
    cfg.workers = 2;
    cfg.overdecomposition = 4;
    cfg.lb.every = 4;
    cfg.lb.strategy = balancer;
    EXPECT_TRUE(run_ampi(cfg).ok) << balancer;
  }
}

TEST(Ampi, BoundsOnlyStrategyIsRejected) {
  auto cfg = make_config(16, 400, 5);
  cfg.workers = 2;
  cfg.overdecomposition = 2;
  cfg.lb.strategy = "rcb";  // bounds-only, cannot place VPs
  EXPECT_THROW((void)run_ampi(cfg), std::invalid_argument);
}

TEST(Ampi, VerifiesWithAVpGridWiderThanTheMesh) {
  // 2 workers × d=8 is a 4×4 VP grid over a 2×2 mesh, so most VPs own
  // no cell; the VP host that `picprk serve` runs accepts that shape, and
  // ampi steps, balances and verifies it the same way.
  auto cfg = make_config(2, 100, 4);
  cfg.workers = 2;
  cfg.overdecomposition = 8;
  EXPECT_TRUE(run_ampi(cfg).ok);

  cfg = make_config(2, 2000, 20);
  cfg.workers = 2;
  cfg.overdecomposition = 8;
  cfg.lb.every = 4;
  cfg.lb.strategy = "greedy";
  EXPECT_TRUE(run_ampi(cfg).ok);
}

TEST(Ampi, MeasuredLoadModeVerifies) {
  auto cfg = make_config(20, 900, 20);
  cfg.init.distribution = Geometric{0.8};
  cfg.workers = 2;
  cfg.overdecomposition = 4;
  cfg.lb.every = 4;
  cfg.lb.measured = true;
  EXPECT_TRUE(run_ampi(cfg).ok);
}

// --------------------------------------------- cross-implementation

TEST(CrossImplementation, AllThreeAgreeWithSerialChecksum) {
  // Same problem through all drivers: all must verify and see the same
  // global particle count.
  auto cfg = make_config(24, 1600, 36);
  cfg.init.distribution = Geometric{0.85};
  cfg.init.k = 1;

  DriverResult base, diff;
  World world(4);
  world.run([&](Comm& comm) {
    const auto b = run_block(comm, baseline(cfg));
    RunConfig dcfg = cfg;
    dcfg.lb.every = 6;
    const auto d = run_block(comm, dcfg);
    if (comm.rank() == 0) {
      base = b;
      diff = d;
    }
  });
  RunConfig acfg = cfg;
  acfg.workers = 2;
  acfg.overdecomposition = 4;
  acfg.lb.every = 6;
  const DriverResult ampi = run_ampi(acfg);

  EXPECT_TRUE(base.ok);
  EXPECT_TRUE(diff.ok);
  EXPECT_TRUE(ampi.ok);
  EXPECT_EQ(base.final_particles, diff.final_particles);
  EXPECT_EQ(base.final_particles, ampi.final_particles);
  EXPECT_EQ(base.verification.id_checksum, diff.verification.id_checksum);
  EXPECT_EQ(base.verification.id_checksum, ampi.verification.id_checksum);
}

}  // namespace
