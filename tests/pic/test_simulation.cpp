#include <gtest/gtest.h>

#include "pic/simulation.hpp"

namespace {

using picprk::pic::CellRegion;
using picprk::pic::ChargeSign;
using picprk::pic::EventSchedule;
using picprk::pic::Geometric;
using picprk::pic::GridSpec;
using picprk::pic::InjectionEvent;
using picprk::pic::RemovalEvent;
using picprk::pic::run_serial;
using picprk::pic::SimulationConfig;
using picprk::pic::Sinusoidal;
using picprk::pic::Uniform;

SimulationConfig base_config(std::int64_t cells, std::uint64_t n, std::uint32_t steps) {
  SimulationConfig cfg;
  cfg.init.grid = GridSpec(cells, 1.0);
  cfg.init.total_particles = n;
  cfg.steps = steps;
  return cfg;
}

TEST(SerialSimulation, UniformVerifies) {
  auto cfg = base_config(40, 2000, 50);
  const auto result = run_serial(cfg);
  EXPECT_TRUE(result.ok()) << "failures=" << result.verification.position_failures;
  EXPECT_EQ(result.final_particles, result.verification.checked);
}

TEST(SerialSimulation, GeometricSkewVerifies) {
  auto cfg = base_config(60, 3000, 80);
  cfg.init.distribution = Geometric{0.9};
  cfg.init.k = 1;
  cfg.init.m = 1;
  EXPECT_TRUE(run_serial(cfg).ok());
}

TEST(SerialSimulation, SinusoidalWithRandomSignsVerifies) {
  auto cfg = base_config(40, 2000, 60);
  cfg.init.distribution = Sinusoidal{};
  cfg.init.sign = ChargeSign::Random;
  cfg.init.m = -2;
  EXPECT_TRUE(run_serial(cfg).ok());
}

TEST(SerialSimulation, LongRunManyWraps) {
  auto cfg = base_config(16, 400, 400);
  cfg.init.k = 1;  // 3 cells/step on a 16-cell ring: many wraps
  cfg.init.m = 2;
  const auto result = run_serial(cfg);
  EXPECT_TRUE(result.ok());
  EXPECT_LT(result.verification.max_position_error, 1e-6);
}

TEST(SerialSimulation, InjectionVerifies) {
  auto cfg = base_config(40, 1000, 60);
  cfg.events = EventSchedule({InjectionEvent{20, CellRegion{10, 30, 10, 30}, 500}}, {});
  const auto result = run_serial(cfg);
  EXPECT_TRUE(result.ok());
  EXPECT_GT(result.final_particles, 1000u);
}

TEST(SerialSimulation, RemovalVerifies) {
  auto cfg = base_config(40, 2000, 60);
  cfg.events = EventSchedule({}, {RemovalEvent{30, CellRegion{0, 40, 0, 40}, 0.5}});
  const auto result = run_serial(cfg);
  EXPECT_TRUE(result.ok());
  EXPECT_LT(result.final_particles, 2000u);
  EXPECT_GT(result.final_particles, 0u);
}

TEST(SerialSimulation, InjectionAndRemovalTogether) {
  auto cfg = base_config(40, 1500, 80);
  cfg.events = EventSchedule(
      {InjectionEvent{10, CellRegion{0, 20, 0, 40}, 400},
       InjectionEvent{40, CellRegion{20, 40, 0, 40}, 400}},
      {RemovalEvent{25, CellRegion{0, 40, 0, 20}, 0.7}});
  EXPECT_TRUE(run_serial(cfg).ok());
}

TEST(SerialSimulation, ZeroStepsIsInitialState) {
  auto cfg = base_config(20, 300, 0);
  const auto result = run_serial(cfg);
  EXPECT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result.verification.max_position_error, 0.0);
}

TEST(SerialSimulation, HigherKTravelsFaster) {
  // Indirect check: k = 2 must still verify (5 cells per step).
  auto cfg = base_config(30, 600, 45);
  cfg.init.k = 2;
  EXPECT_TRUE(run_serial(cfg).ok());
}

}  // namespace
