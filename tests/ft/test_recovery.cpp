// End-to-end recovery: kill a rank (or VP) mid-run and require the
// driver to roll back to the last consistent buddy checkpoint, replay,
// and still pass the closed-form verification and id-checksum test —
// the acceptance criterion of the resilience layer.
#include <gtest/gtest.h>

#include <cstdint>

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
  return cfg;
}

par::RunConfig with_kill(par::RunConfig cfg, int rank, std::uint32_t step,
                         std::uint32_t checkpoint_every = 8) {
  cfg.resilience.plan = ft::FaultPlan::parse(
      "kill:rank=" + std::to_string(rank) + ",step=" + std::to_string(step), 1);
  cfg.resilience.checkpoint_every = checkpoint_every;
  cfg.resilience.timeout_ms = 10000;  // safety net: fail fast instead of hanging CI
  return cfg;
}

/// Baseline: the block driver with its bounds left static.
const par::DriverFn kBaseline = [](comm::Comm& comm, const par::RunConfig& rc) {
  par::RunConfig baseline = rc;
  baseline.lb.every = 0;
  return par::run_block(comm, baseline);
};

TEST(Recovery, BaselineSurvivesRankDeath) {
  auto cfg = with_kill(small_config(), 1, 25);
  cfg.ranks = 4;
  par::ResilienceTelemetry telemetry;
  const auto result = par::run_resilient(cfg, kBaseline, &telemetry);
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.verification.id_checksum, result.expected_id_checksum);
  EXPECT_EQ(result.recoveries, 1u);
  EXPECT_EQ(telemetry.kills, 1u);
  ASSERT_EQ(telemetry.trace.size(), 1u);
  EXPECT_EQ(telemetry.trace[0].kind, ft::FaultKind::Kill);
  EXPECT_EQ(telemetry.trace[0].rank, 1);
}

TEST(Recovery, BaselineRecoversWithEventsInFlight) {
  // Injection + removal events across the kill step: the restored
  // EventTracker sum must keep the checksum exact through the replay.
  auto cfg = small_config();
  cfg.events = pic::EventSchedule(
      {pic::InjectionEvent{12, pic::CellRegion{0, 32, 0, 32}, 500}},
      {pic::RemovalEvent{28, pic::CellRegion{0, 64, 0, 64}, 0.1}});
  cfg = with_kill(cfg, 2, 30);
  cfg.ranks = 4;
  const auto result = par::run_resilient(cfg, kBaseline);
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.recoveries, 1u);
}

TEST(Recovery, DiffusionSurvivesRankDeath) {
  // The kill lands after LB has moved boundaries, so the restored
  // decomposition must match the checkpointed boundary vectors.
  auto cfg = with_kill(small_config(), 1, 27);
  cfg.ranks = 4;
  cfg.lb.every = 6;
  const auto result = par::run_resilient(cfg, &par::run_block);
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.verification.id_checksum, result.expected_id_checksum);
  EXPECT_EQ(result.recoveries, 1u);
}

/// ampi on 2 workers × d=3, VP 3 killed at step 21, checkpoints every 8,
/// described by cfg.resilience alone.
par::RunConfig ampi_kill_config() {
  auto cfg = with_kill(small_config(), 3, 21);
  cfg.resilience.timeout_ms = 0;  // ampi has no World to time out
  cfg.workers = 2;
  cfg.overdecomposition = 3;
  cfg.lb.every = 5;
  return cfg;
}

TEST(Recovery, AmpiSurvivesVpDeath) {
  obs::Registry registry;
  auto cfg = ampi_kill_config();
  cfg.obs.registry = &registry;
  const auto result = par::run_ampi(cfg);
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.verification.id_checksum, result.expected_id_checksum);
  EXPECT_EQ(result.recoveries, 1u);
  ASSERT_NE(registry.find_counter("ft/kills"), nullptr);
  EXPECT_EQ(registry.find_counter("ft/kills")->value(), 1u);
  ASSERT_NE(registry.find_counter("ft/checkpoint_saves"), nullptr);
  EXPECT_GT(registry.find_counter("ft/checkpoint_saves")->value(), 0u);
}

TEST(Recovery, AmpiHonoursMaxRecoveries) {
  // The VP rollback rung is capped by the same knob as run_resilient's:
  // with no rollbacks allowed the kill is rethrown, not repaired.
  auto cfg = ampi_kill_config();
  cfg.resilience.max_recoveries = 0;
  try {
    (void)par::run_ampi(cfg);
    ADD_FAILURE() << "the kill was repaired despite max_recoveries = 0";
  } catch (const ft::RankKilled& e) {
    EXPECT_EQ(e.rank(), 3);
    EXPECT_EQ(e.step(), 21u);
  }
}

TEST(Recovery, UnrecoverableWithoutCheckpointsRethrows) {
  auto cfg = small_config();
  cfg.ranks = 2;
  cfg.resilience.plan = ft::FaultPlan::parse("kill:rank=0,step=5", 1);
  // checkpoint_every = 0: nothing to roll back to.
  EXPECT_THROW(par::run_resilient(cfg, kBaseline), ft::RankKilled);
}

TEST(Recovery, ResultsMatchFaultFreeRun) {
  // The recovered run must produce the same verification numbers as an
  // undisturbed one — rollback is invisible to the physics.
  auto cfg = small_config();
  cfg.ranks = 4;
  const auto clean = par::run_resilient(cfg, kBaseline);
  auto killed = with_kill(cfg, 3, 19);
  const auto recovered = par::run_resilient(killed, kBaseline);
  EXPECT_TRUE(clean.ok);
  EXPECT_TRUE(recovered.ok);
  EXPECT_EQ(clean.verification.id_checksum, recovered.verification.id_checksum);
  EXPECT_EQ(clean.final_particles, recovered.final_particles);
  EXPECT_EQ(clean.max_particles_per_rank, recovered.max_particles_per_rank);
}

TEST(Recovery, StallWithTimeoutRollsBackAndCompletes) {
  // An infinite stall surfaces as CommTimeout; with checkpoints on, the
  // wrapper rolls back and the (one-shot) stall does not re-fire.
  auto cfg = small_config();
  cfg.ranks = 4;
  cfg.resilience.plan = ft::FaultPlan::parse("stall:rank=2,step=18,ms=inf", 1);
  cfg.resilience.checkpoint_every = 8;
  cfg.resilience.timeout_ms = 300;
  par::ResilienceTelemetry telemetry;
  const auto result = par::run_resilient(cfg, kBaseline, &telemetry);
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.recoveries, 1u);
  EXPECT_EQ(telemetry.stalls, 1u);
  ASSERT_EQ(telemetry.failures.size(), 1u);
  EXPECT_NE(telemetry.failures[0].find("comm-timeout"), std::string::npos);
}

}  // namespace
