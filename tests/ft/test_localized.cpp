// Acceptance suite of the two-level recovery ladder
// (docs/RESILIENCE.md): localized rank-failure recovery — rebuild only
// the dead rank's state from its buddy copy, survivors replay at most
// one step — across all five paper distributions and all threadcomm
// drivers, plus the chaos soak pinning that seeded message faults heal
// entirely in-band (zero rollbacks) under the reliable transport.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "comm/comm.hpp"
#include "ft/fault.hpp"
#include "obs/registry.hpp"
#include "par/ampi.hpp"
#include "par/block.hpp"
#include "par/resilient.hpp"

namespace {

using namespace picprk;

par::RunConfig small_config(std::uint32_t steps = 40) {
  par::RunConfig cfg;
  cfg.init.grid = pic::GridSpec(64, 1.0);
  cfg.init.total_particles = 6000;
  cfg.init.distribution = pic::Geometric{0.98};
  cfg.steps = steps;
  cfg.ranks = 4;
  return cfg;
}

/// Arms localized (level-2) recovery for a kill at (rank, step): the
/// coordinator rendezvous replaces the world-teardown rollback.
par::RunConfig with_local_kill(par::RunConfig cfg, int rank, std::uint32_t step) {
  cfg.resilience.plan = ft::FaultPlan::parse(
      "kill:rank=" + std::to_string(rank) + ",step=" + std::to_string(step), 1);
  cfg.resilience.recovery = par::RecoveryMode::kLocal;
  cfg.resilience.checkpoint_every = 1;  // forced to 1 in kLocal anyway
  cfg.resilience.timeout_ms = 10000;  // fail fast instead of hanging CI
  return cfg;
}

/// Baseline: the block driver with its bounds left static.
const par::DriverFn kBaseline = [](comm::Comm& comm, const par::RunConfig& rc) {
  par::RunConfig baseline = rc;
  baseline.lb.every = 0;
  return par::run_block(comm, baseline);
};
const par::DriverFn kDiffusion = &par::run_block;

TEST(Localized, SingleKillAcrossAllFiveDistributions) {
  struct Named {
    const char* name;
    pic::Distribution dist;
  };
  const std::vector<Named> distributions = {
      {"geometric", pic::Geometric{0.98}},
      {"sinusoidal", pic::Sinusoidal{}},
      {"linear", pic::Linear{1.0, 1.0}},
      {"patch", pic::Patch{pic::CellRegion{8, 48, 8, 48}}},
      {"uniform", pic::Uniform{}},
  };
  for (const auto& d : distributions) {
    SCOPED_TRACE(d.name);
    auto clean_cfg = small_config();
    clean_cfg.init.distribution = d.dist;
    const auto clean = par::run_resilient(clean_cfg, kBaseline);
    ASSERT_TRUE(clean.ok);

    auto cfg = with_local_kill(clean_cfg, 1, 25);
    par::ResilienceTelemetry telemetry;
    const auto result = par::run_resilient(cfg, kBaseline, &telemetry);
    EXPECT_TRUE(result.ok);
    // End-state physics identical to the fault-free run — localized
    // recovery is invisible to the simulation.
    EXPECT_EQ(result.verification.id_checksum, clean.verification.id_checksum);
    EXPECT_EQ(result.final_particles, clean.final_particles);
    EXPECT_EQ(telemetry.localized_recoveries, 1u);
    EXPECT_EQ(telemetry.rollbacks, 0u);
    EXPECT_LE(telemetry.replayed_steps, 1u);
    EXPECT_EQ(telemetry.kills, 1u);
  }
}

TEST(Localized, DiffusionKillAfterBoundariesMoved) {
  // The kill lands after the boundary balancer has moved rows/columns,
  // so the buddy restore must also reinstate the checkpointed
  // decomposition on every survivor.
  auto cfg = with_local_kill(small_config(), 1, 27);
  cfg.lb.every = 6;
  par::ResilienceTelemetry telemetry;
  const auto result = par::run_resilient(cfg, kDiffusion, &telemetry);
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.verification.id_checksum, result.expected_id_checksum);
  EXPECT_EQ(telemetry.localized_recoveries, 1u);
  EXPECT_EQ(telemetry.rollbacks, 0u);
  EXPECT_LE(telemetry.replayed_steps, 1u);
}

TEST(Localized, DualKillSameStepStillLocalized) {
  // Two ranks die at the same step. The buddy copies live in the shared
  // in-process store, so both victims restore regardless of which
  // primaries were dropped; depending on interleaving the coordinator
  // repairs them in one rendezvous round or two — never via rollback.
  auto cfg = with_local_kill(small_config(), 1, 20);
  cfg.resilience.plan =
      ft::FaultPlan::parse("kill:rank=1,step=20;kill:rank=2,step=20", 1);
  par::ResilienceTelemetry telemetry;
  const auto result = par::run_resilient(cfg, kBaseline, &telemetry);
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.verification.id_checksum, result.expected_id_checksum);
  EXPECT_EQ(telemetry.rollbacks, 0u);
  EXPECT_GE(telemetry.localized_recoveries, 1u);
  EXPECT_LE(telemetry.localized_recoveries, 2u);
  EXPECT_LE(telemetry.replayed_steps, 2u);
  EXPECT_EQ(telemetry.kills, 2u);
}

TEST(Localized, AmpiVpDeathContinuesOnShrunkenWorkerSet) {
  // A VP kill takes its whole host worker down; the runtime retires the
  // worker, re-places its VPs through the balancer's degraded path and
  // continues on the survivors — replaying at most one superstep.
  obs::Registry registry;
  auto cfg = small_config();
  cfg.obs.registry = &registry;
  cfg.resilience.plan = ft::FaultPlan::parse("kill:rank=3,step=21", 1);
  cfg.resilience.recovery = par::RecoveryMode::kLocal;
  cfg.resilience.checkpoint_every = 8;  // cadence 1 under kLocal

  cfg.workers = 2;
  cfg.overdecomposition = 3;
  cfg.lb.every = 5;
  const auto result = par::run_ampi(cfg);
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.verification.id_checksum, result.expected_id_checksum);
  EXPECT_EQ(result.recoveries, 1u);
  EXPECT_EQ(result.localized_recoveries, 1u);
  EXPECT_LE(result.replayed_steps, 1u);
  ASSERT_NE(registry.find_counter("ft/kills"), nullptr);
  EXPECT_EQ(registry.find_counter("ft/kills")->value(), 1u);
}

/// Chaos soak: seeded 1% drop + 0.5% dup + 1% delay over a full run.
/// With the reliable transport armed every fault heals in-band: the run
/// completes bit-for-bit identical to the clean run with ZERO recoveries
/// of either kind (the obs ft/rollbacks counter stays at 0).
void chaos_soak(const par::DriverFn& driver, const std::string& strategy) {
  auto clean_cfg = small_config();
  clean_cfg.lb.every = 6;
  clean_cfg.lb.strategy = strategy;
  const auto clean = par::run_resilient(clean_cfg, driver);
  ASSERT_TRUE(clean.ok);

  auto cfg = clean_cfg;
  cfg.resilience.plan = ft::FaultPlan::parse(
      "drop:prob=0.01;dup:prob=0.005;delay:prob=0.01,ms=1", 4242);
  cfg.resilience.reliable = true;
  cfg.resilience.rto_ms = 5;
  cfg.resilience.timeout_ms = 10000;
  obs::Registry registry;
  cfg.obs.registry = &registry;
  par::ResilienceTelemetry telemetry;
  const auto result = par::run_resilient(cfg, driver, &telemetry);
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.verification.id_checksum, clean.verification.id_checksum);
  EXPECT_EQ(result.final_particles, clean.final_particles);
  EXPECT_EQ(result.recoveries, 0u);
  EXPECT_EQ(telemetry.rollbacks, 0u);
  EXPECT_GT(telemetry.dropped + telemetry.duplicated + telemetry.delayed, 0u)
      << "the schedule never fired — the soak proved nothing";
  EXPECT_GT(telemetry.retransmits, 0u) << "no drop was healed in-band";
  ASSERT_NE(registry.find_counter("ft/rollbacks"), nullptr);
  EXPECT_EQ(registry.find_counter("ft/rollbacks")->value(), 0u);
}

TEST(ChaosSoak, BaselineHealsInBand) { chaos_soak(kBaseline, ""); }

TEST(ChaosSoak, DiffusionHealsInBand) { chaos_soak(kDiffusion, ""); }

TEST(ChaosSoak, DiffusionRcbStrategyHealsInBand) { chaos_soak(kDiffusion, "rcb"); }

TEST(ChaosSoak, DiffusionAdaptiveStrategyHealsInBand) {
  chaos_soak(kDiffusion, "adaptive");
}

}  // namespace
