// The specification keeps h and dt symbolic (Eqs. 1–4); the canonical
// configuration is h = dt = 1 but nothing in the kernel depends on it:
// the Eq.-3 charge scales with h/dt² so the per-step displacement is
// exactly (2k+1)·h whatever the units. These tests pin that generality.
#include <gtest/gtest.h>

#include "comm/world.hpp"
#include "par/block.hpp"
#include "pic/simulation.hpp"

namespace {

using picprk::pic::GridSpec;
using picprk::pic::SimulationConfig;

class UnitSweep : public ::testing::TestWithParam<std::tuple<double, double>> {};

INSTANTIATE_TEST_SUITE_P(HandDt, UnitSweep,
                         ::testing::Combine(::testing::Values(0.5, 1.0, 2.0),
                                            ::testing::Values(0.25, 1.0, 3.0)),
                         [](const auto& info) {
                           const double h = std::get<0>(info.param);
                           const double dt = std::get<1>(info.param);
                           auto tag = [](double v) {
                             std::string s = std::to_string(v);
                             for (auto& ch : s)
                               if (ch == '.') ch = 'p';
                             return s.substr(0, 4);
                           };
                           return "h" + tag(h) + "_dt" + tag(dt);
                         });

TEST_P(UnitSweep, SerialVerifies) {
  const auto [h, dt] = GetParam();
  SimulationConfig cfg;
  cfg.init.grid = GridSpec(24, h);
  cfg.init.total_particles = 400;
  cfg.init.distribution = picprk::pic::Geometric{0.9};
  cfg.init.k = 1;
  cfg.init.m = -1;
  cfg.init.dt = dt;
  cfg.steps = 30;
  const auto result = picprk::pic::run_serial(cfg);
  EXPECT_TRUE(result.ok()) << "h=" << h << " dt=" << dt
                           << " max_err=" << result.verification.max_position_error;
}

TEST_P(UnitSweep, DisplacementPerStepIsExactlyCells) {
  const auto [h, dt] = GetParam();
  picprk::pic::InitParams params;
  params.grid = GridSpec(16, h);
  params.total_particles = 64;
  params.k = 0;
  params.m = 2;
  params.dt = dt;
  const picprk::pic::Initializer init(params);
  auto particles = init.create_all();
  const picprk::pic::AlternatingColumnCharges charges;
  const auto before = particles;
  picprk::pic::move_all(std::span<picprk::pic::Particle>(particles), params.grid,
                        charges, dt);
  for (std::size_t i = 0; i < particles.size(); ++i) {
    const double dx = picprk::pic::periodic_distance(particles[i].x, before[i].x,
                                                     params.grid.length());
    const double dy = picprk::pic::periodic_distance(particles[i].y, before[i].y,
                                                     params.grid.length());
    EXPECT_NEAR(dx, h, 1e-9 * h) << "h=" << h << " dt=" << dt;
    EXPECT_NEAR(dy, 2.0 * h, 1e-9 * h);
  }
}

TEST(GeneralizedUnits, MeshChargeMagnitudeScales) {
  // Doubling the mesh charge halves the particle charge; the motion is
  // unchanged.
  SimulationConfig cfg;
  cfg.init.grid = GridSpec(20, 1.0);
  cfg.init.total_particles = 200;
  cfg.init.mesh_q = 2.0;
  cfg.steps = 20;
  EXPECT_TRUE(picprk::pic::run_serial(cfg).ok());
}

TEST(GeneralizedUnits, ParallelDriverWithNonUnitUnits) {
  picprk::par::RunConfig cfg;
  cfg.lb.every = 0;  // baseline: static bounds
  cfg.init.grid = GridSpec(24, 0.5);
  cfg.init.total_particles = 800;
  cfg.init.distribution = picprk::pic::Geometric{0.85};
  cfg.init.dt = 2.0;
  cfg.init.k = 1;
  cfg.steps = 25;
  picprk::comm::World world(4);
  world.run([&](picprk::comm::Comm& comm) {
    EXPECT_TRUE(picprk::par::run_block(comm, cfg).ok);
  });
}

}  // namespace
