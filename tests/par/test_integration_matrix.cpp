// The full integration matrix: every parallel implementation (baseline /
// diffusion / two-phase diffusion / rcb / adaptive / ampi) × every §III-E
// distribution × static-or-dynamic population must verify against the
// closed form AND agree with the serial reference on the global particle
// count and id checksum. This is the repository's strongest end-to-end
// statement: the block driver under every balancer and the VP host
// producing the same verified physics.
#include <gtest/gtest.h>

#include <tuple>

#include "comm/world.hpp"
#include "par/ampi.hpp"
#include "par/block.hpp"
#include "pic/simulation.hpp"

namespace {

using picprk::comm::Comm;
using picprk::comm::World;
using picprk::par::DriverConfig;
using picprk::par::DriverResult;
using picprk::par::RunConfig;
using picprk::pic::CellRegion;
using picprk::pic::EventSchedule;
using picprk::pic::InjectionEvent;
using picprk::pic::RemovalEvent;

constexpr std::int64_t kCells = 24;
constexpr std::uint64_t kParticles = 900;
constexpr std::uint32_t kSteps = 32;

picprk::pic::Distribution matrix_distribution(int kind) {
  switch (kind) {
    case 0: return picprk::pic::Uniform{};
    case 1: return picprk::pic::Geometric{0.85};
    case 2: return picprk::pic::Sinusoidal{};
    case 3: return picprk::pic::Linear{1.0, 1.2};
    default: return picprk::pic::Patch{CellRegion{2, 14, 6, 20}};
  }
}

const char* matrix_tag(int kind) {
  switch (kind) {
    case 0: return "uniform";
    case 1: return "geometric";
    case 2: return "sinusoidal";
    case 3: return "linear";
    default: return "patch";
  }
}

RunConfig matrix_config(int kind, bool events) {
  RunConfig cfg;
  cfg.init.grid = picprk::pic::GridSpec(kCells, 1.0);
  cfg.init.total_particles = kParticles;
  cfg.init.distribution = matrix_distribution(kind);
  cfg.init.k = 1;
  cfg.init.m = -1;
  cfg.steps = kSteps;
  if (events) {
    cfg.events = EventSchedule(
        {InjectionEvent{kSteps / 3, CellRegion{0, kCells / 2, 0, kCells}, 300}},
        {RemovalEvent{2 * kSteps / 3, CellRegion{0, kCells, kCells / 2, kCells}, 0.4}});
  }
  return cfg;
}

struct Reference {
  std::uint64_t particles;
  std::uint64_t checksum;
};

Reference serial_reference(const DriverConfig& cfg) {
  picprk::pic::SimulationConfig scfg;
  scfg.init = cfg.init;
  scfg.steps = cfg.steps;
  scfg.events = cfg.events;
  const auto r = picprk::pic::run_serial(scfg);
  EXPECT_TRUE(r.ok());
  return Reference{r.final_particles, r.verification.id_checksum};
}

// (distribution kind, events on/off)
class Matrix : public ::testing::TestWithParam<std::tuple<int, bool>> {};

INSTANTIATE_TEST_SUITE_P(DistributionsAndEvents, Matrix,
                         ::testing::Combine(::testing::Values(0, 1, 2, 3, 4),
                                            ::testing::Bool()),
                         [](const auto& info) {
                           const int kind = std::get<0>(info.param);
                           const bool events = std::get<1>(info.param);
                           return std::string(matrix_tag(kind)) +
                                  (events ? "_events" : "_static");
                         });

TEST_P(Matrix, BaselineMatchesSerial) {
  const auto [kind, events] = GetParam();
  const auto cfg = matrix_config(kind, events);
  const auto ref = serial_reference(cfg);
  World world(4);
  world.run([&](Comm& comm) {
    RunConfig bcfg = cfg;
    bcfg.lb.every = 0;  // baseline: static bounds
    const DriverResult r = picprk::par::run_block(comm, bcfg);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.final_particles, ref.particles);
    EXPECT_EQ(r.verification.id_checksum, ref.checksum);
  });
}

TEST_P(Matrix, DiffusionMatchesSerial) {
  const auto [kind, events] = GetParam();
  const auto cfg = matrix_config(kind, events);
  const auto ref = serial_reference(cfg);
  World world(4);
  world.run([&](Comm& comm) {
    RunConfig dcfg = cfg;
    dcfg.lb.strategy = "diffusion:threshold=0.05,border=2";
    dcfg.lb.every = 4;
    const DriverResult r = picprk::par::run_block(comm, dcfg);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.final_particles, ref.particles);
    EXPECT_EQ(r.verification.id_checksum, ref.checksum);
  });
}

TEST_P(Matrix, TwoPhaseDiffusionMatchesSerial) {
  const auto [kind, events] = GetParam();
  const auto cfg = matrix_config(kind, events);
  const auto ref = serial_reference(cfg);
  World world(4);
  world.run([&](Comm& comm) {
    RunConfig dcfg = cfg;
    dcfg.lb.strategy = "diffusion:threshold=0.05,border=1,two_phase=1";
    dcfg.lb.every = 6;
    const DriverResult r = picprk::par::run_block(comm, dcfg);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.final_particles, ref.particles);
    EXPECT_EQ(r.verification.id_checksum, ref.checksum);
  });
}

TEST_P(Matrix, RcbMatchesSerial) {
  const auto [kind, events] = GetParam();
  const auto cfg = matrix_config(kind, events);
  const auto ref = serial_reference(cfg);
  World world(4);
  world.run([&](Comm& comm) {
    RunConfig dcfg = cfg;
    dcfg.lb.strategy = "rcb:two_phase=1";
    dcfg.lb.every = 6;
    const DriverResult r = picprk::par::run_block(comm, dcfg);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.final_particles, ref.particles);
    EXPECT_EQ(r.verification.id_checksum, ref.checksum);
  });
}

TEST_P(Matrix, AdaptiveMatchesSerial) {
  const auto [kind, events] = GetParam();
  const auto cfg = matrix_config(kind, events);
  const auto ref = serial_reference(cfg);
  World world(4);
  world.run([&](Comm& comm) {
    RunConfig dcfg = cfg;
    dcfg.lb.strategy = "adaptive";
    dcfg.lb.every = 6;
    const DriverResult r = picprk::par::run_block(comm, dcfg);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.final_particles, ref.particles);
    EXPECT_EQ(r.verification.id_checksum, ref.checksum);
  });
}

TEST_P(Matrix, AmpiMatchesSerial) {
  const auto [kind, events] = GetParam();
  const auto cfg = matrix_config(kind, events);
  const auto ref = serial_reference(cfg);
  RunConfig acfg = cfg;
  acfg.workers = 2;
  acfg.overdecomposition = 4;
  acfg.lb.every = 5;
  const DriverResult r = picprk::par::run_ampi(acfg);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.final_particles, ref.particles);
  EXPECT_EQ(r.verification.id_checksum, ref.checksum);
}

}  // namespace
