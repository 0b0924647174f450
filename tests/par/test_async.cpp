// The async engine's correctness contract: removing both per-step
// barriers (incremental iexchange delivery + Mattern four-counter
// termination) must change *nothing* observable about the physics. For
// every §III-E distribution, with and without population events, the
// engine must reproduce the serial reference's final particle count and
// id checksum bit-for-bit — the same bar the sync drivers clear in
// test_integration_matrix.cpp.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <tuple>

#include "comm/world.hpp"
#include "obs/registry.hpp"
#include "par/ampi.hpp"
#include "par/async.hpp"
#include "par/engine.hpp"
#include "pic/simulation.hpp"

namespace {

using picprk::comm::Comm;
using picprk::comm::World;
using picprk::par::DriverResult;
using picprk::par::RunConfig;
using picprk::par::run_async;
using picprk::pic::CellRegion;
using picprk::pic::EventSchedule;
using picprk::pic::InjectionEvent;
using picprk::pic::RemovalEvent;

/// The async engine as every entry point runs it: make_engine steps it
/// through run_resilient.
DriverResult run_async_engine(RunConfig cfg) {
  cfg.impl = "async";
  return picprk::par::make_engine(std::move(cfg))->run().result;
}

constexpr std::int64_t kCells = 24;
constexpr std::uint64_t kParticles = 900;
constexpr std::uint32_t kSteps = 32;

picprk::pic::Distribution async_distribution(int kind) {
  switch (kind) {
    case 0: return picprk::pic::Uniform{};
    case 1: return picprk::pic::Geometric{0.85};
    case 2: return picprk::pic::Sinusoidal{};
    case 3: return picprk::pic::Linear{1.0, 1.2};
    default: return picprk::pic::Patch{CellRegion{2, 14, 6, 20}};
  }
}

const char* async_tag(int kind) {
  switch (kind) {
    case 0: return "uniform";
    case 1: return "geometric";
    case 2: return "sinusoidal";
    case 3: return "linear";
    default: return "patch";
  }
}

RunConfig async_config(int kind, bool events) {
  RunConfig cfg;
  cfg.init.grid = picprk::pic::GridSpec(kCells, 1.0);
  cfg.init.total_particles = kParticles;
  cfg.init.distribution = async_distribution(kind);
  cfg.init.k = 1;
  cfg.init.m = -1;
  cfg.steps = kSteps;
  cfg.ranks = 4;
  cfg.overdecomposition = 4;
  cfg.lb.strategy = "steal";
  cfg.lb.every = 4;
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

Reference serial_reference(const RunConfig& cfg) {
  picprk::pic::SimulationConfig scfg;
  scfg.init = cfg.init;
  scfg.steps = cfg.steps;
  scfg.events = cfg.events;
  const auto r = picprk::pic::run_serial(scfg);
  EXPECT_TRUE(r.ok());
  return Reference{r.final_particles, r.verification.id_checksum};
}

// (distribution kind, events on/off)
class AsyncMatrix : public ::testing::TestWithParam<std::tuple<int, bool>> {};

INSTANTIATE_TEST_SUITE_P(DistributionsAndEvents, AsyncMatrix,
                         ::testing::Combine(::testing::Values(0, 1, 2, 3, 4),
                                            ::testing::Bool()),
                         [](const auto& info) {
                           const int kind = std::get<0>(info.param);
                           const bool events = std::get<1>(info.param);
                           return std::string(async_tag(kind)) +
                                  (events ? "_events" : "_static");
                         });

TEST_P(AsyncMatrix, MatchesSerialBitForBit) {
  const auto [kind, events] = GetParam();
  const RunConfig cfg = async_config(kind, events);
  const Reference ref = serial_reference(cfg);
  const DriverResult r = run_async_engine(cfg);
  EXPECT_TRUE(r.ok) << "failures=" << r.verification.position_failures
                    << " checksum=" << r.verification.id_checksum << "/"
                    << r.expected_id_checksum;
  EXPECT_EQ(r.final_particles, ref.particles);
  EXPECT_EQ(r.verification.id_checksum, ref.checksum);
  EXPECT_EQ(r.verification.checked, r.final_particles);
}

// The two overlap-free barriers are gone, but the engine must still
// agree with the barriered vpr driver at the same decomposition —
// 16 VPs either way — including LB migration effects on the tallies.
TEST(Async, MatchesAmpiAtEqualDecomposition) {
  RunConfig cfg = async_config(1, /*events=*/false);
  const DriverResult async_r = run_async_engine(cfg);

  RunConfig ampi_cfg = cfg;
  ampi_cfg.workers = 4;  // workers * d == ranks * d == 16 VPs
  ampi_cfg.lb.strategy = "greedy";
  const DriverResult ampi_r = picprk::par::run_ampi(ampi_cfg);

  ASSERT_TRUE(async_r.ok);
  ASSERT_TRUE(ampi_r.ok);
  EXPECT_EQ(async_r.final_particles, ampi_r.final_particles);
  EXPECT_EQ(async_r.verification.id_checksum, ampi_r.verification.id_checksum);
  EXPECT_EQ(async_r.expected_id_checksum, ampi_r.expected_id_checksum);
}

// Collective form inside an existing world: every rank must return the
// same (allreduced) result.
TEST(Async, CollectiveFormAgreesOnAllRanks) {
  const RunConfig cfg = async_config(0, /*events=*/false);
  World world(cfg.ranks);
  world.run([&](Comm& comm) {
    const DriverResult r = run_async(comm, cfg);
    EXPECT_TRUE(r.ok);
    const std::uint64_t lo = comm.allreduce_value(
        r.verification.id_checksum,
        [](std::uint64_t a, std::uint64_t b) { return a < b ? a : b; });
    const std::uint64_t hi = comm.allreduce_value(
        r.verification.id_checksum,
        [](std::uint64_t a, std::uint64_t b) { return a < b ? b : a; });
    EXPECT_EQ(lo, hi);
    EXPECT_EQ(r.verification.checked, r.final_particles);
  });
}

// Termination detection must not hinge on every rank having traffic: a
// patch crammed into one corner leaves most ranks (and their VPs) with
// zero particles, so their (sent, received) contributions stay (0, 0)
// every step. The token ring must still complete each step promptly.
TEST(Async, ZeroParticleRanksTerminate) {
  RunConfig cfg = async_config(4, /*events=*/false);
  cfg.init.distribution = picprk::pic::Patch{CellRegion{0, 4, 0, 4}};
  cfg.lb.every = 0;  // no rebalancing: the empty ranks stay empty
  const Reference ref = serial_reference(cfg);
  const DriverResult r = run_async_engine(cfg);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.final_particles, ref.particles);
  EXPECT_EQ(r.verification.id_checksum, ref.checksum);
}

// The engine requires a placement-capable strategy; bounds-only specs
// are a configuration error, caught before any thread spawns.
TEST(Async, RejectsNonPlacementBalancer) {
  RunConfig cfg = async_config(0, false);
  cfg.lb.strategy = "rcb";  // bounds-only: no placement support
  EXPECT_THROW(run_async_engine(cfg), std::invalid_argument);
}

// Overlap proof: with a registry attached, compute-phase deliveries
// land in async/overlap_deliveries — arrivals drained *while other VPs
// of the same rank were still stepping*.
TEST(Async, RecordsOverlapTelemetry) {
  picprk::obs::Registry registry;
  RunConfig cfg = async_config(1, /*events=*/false);
  cfg.obs.registry = &registry;
  const DriverResult r = run_async_engine(cfg);
  ASSERT_TRUE(r.ok);
  std::uint64_t overlap = 0, drain = 0;
  for (const auto& c : registry.counters()) {
    if (c.name == "async/overlap_deliveries") overlap = c.value;
    if (c.name == "async/drain_deliveries") drain = c.value;
  }
  // Every remote arrival is accounted to exactly one of the two paths.
  EXPECT_GT(overlap + drain, 0u);
}

}  // namespace
