// Nonblocking progress under message faults: the async engine's drain
// loop never blocks in a recv, so every retransmit/dedup/late-delivery
// path of the transport stack is exercised through try_recv polling
// plus the termination token. Delay faults must be absorbed outright;
// drop and duplicate faults must heal through the reliable transport
// (whose pump thread retransmits independently of the engine); a total
// blackout without the transport must surface as a CommTimeout instead
// of a hang.
#include <gtest/gtest.h>

#include <stdexcept>

#include "comm/comm.hpp"
#include "ft/fault.hpp"
#include "par/engine.hpp"
#include "pic/simulation.hpp"

namespace {

using picprk::comm::CommTimeout;
using picprk::ft::FaultPlan;
using picprk::par::DriverResult;
using picprk::par::RunConfig;

/// The async engine as every entry point runs it: make_engine steps it
/// through run_resilient.
DriverResult run_async_engine(RunConfig cfg) {
  cfg.impl = "async";
  return picprk::par::make_engine(std::move(cfg))->run().result;
}

RunConfig faulted_config() {
  RunConfig cfg;
  cfg.init.grid = picprk::pic::GridSpec(24, 1.0);
  cfg.init.total_particles = 900;
  cfg.init.distribution = picprk::pic::Geometric{0.85};
  cfg.init.k = 1;
  cfg.init.m = -1;
  cfg.steps = 24;
  cfg.ranks = 4;
  cfg.overdecomposition = 4;
  cfg.lb.strategy = "steal";
  cfg.lb.every = 4;
  return cfg;
}

std::uint64_t serial_checksum(const RunConfig& cfg) {
  picprk::pic::SimulationConfig scfg;
  scfg.init = cfg.init;
  scfg.steps = cfg.steps;
  scfg.events = cfg.events;
  const auto r = picprk::pic::run_serial(scfg);
  EXPECT_TRUE(r.ok());
  return r.verification.id_checksum;
}

// Delay is the one message fault that needs no transport to heal: the
// payload arrives late but intact, which stresses exactly the paths the
// sync drivers never see — deliveries landing in the drain phase, or
// stamped for the *next* step while the receiver still finishes this
// one (parked in the StepInbox).
TEST(AsyncFt, DelayedMessagesVerifyWithoutTransport) {
  RunConfig cfg = faulted_config();
  cfg.resilience.plan = FaultPlan::parse("delay:prob=0.5,ms=2", /*seed=*/71);
  cfg.resilience.timeout_ms = 20000;
  const std::uint64_t ref = serial_checksum(cfg);
  const DriverResult r = run_async_engine(cfg);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.verification.id_checksum, ref);
}

// Dropped payloads (and dropped termination tokens) heal via seq/ack
// retransmission; the four counters must not double-count the replays.
TEST(AsyncFt, DroppedMessagesHealThroughReliableTransport) {
  RunConfig cfg = faulted_config();
  cfg.resilience.plan = FaultPlan::parse("drop:prob=0.2", /*seed=*/13);
  cfg.resilience.reliable = true;
  cfg.resilience.rto_ms = 5;
  cfg.resilience.timeout_ms = 20000;
  const std::uint64_t ref = serial_checksum(cfg);
  const DriverResult r = run_async_engine(cfg);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.verification.id_checksum, ref);
}

// Duplicates must be absorbed by the receiver's dedup window — an
// uncaught copy would bump `received` past `sent` and break (or worse,
// satisfy early) the termination balance, and deliver particles twice.
TEST(AsyncFt, DuplicatedMessagesDedupThroughReliableTransport) {
  RunConfig cfg = faulted_config();
  cfg.resilience.plan = FaultPlan::parse("dup:prob=0.3", /*seed=*/29);
  cfg.resilience.reliable = true;
  cfg.resilience.rto_ms = 5;
  cfg.resilience.timeout_ms = 20000;
  const std::uint64_t ref = serial_checksum(cfg);
  const DriverResult r = run_async_engine(cfg);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.verification.id_checksum, ref);
}

// The full message-chaos schedule at once, all healed in-band.
TEST(AsyncFt, MixedFaultScheduleVerifies) {
  RunConfig cfg = faulted_config();
  cfg.resilience.plan = FaultPlan::parse(
      "drop:prob=0.1;dup:prob=0.1;delay:prob=0.2,ms=1", /*seed=*/4242);
  cfg.resilience.reliable = true;
  cfg.resilience.rto_ms = 5;
  cfg.resilience.timeout_ms = 30000;
  const std::uint64_t ref = serial_checksum(cfg);
  const DriverResult r = run_async_engine(cfg);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.verification.id_checksum, ref);
}

// A total blackout with no transport can never terminate a step — the
// drain loop must convert "no progress within timeout_ms" into the
// typed CommTimeout rather than spinning forever.
TEST(AsyncFt, TotalDropWithoutTransportTimesOut) {
  RunConfig cfg = faulted_config();
  cfg.lb.every = 0;  // LB collectives would block before the drain does
  cfg.resilience.plan = FaultPlan::parse("drop:prob=1.0", /*seed=*/3);
  cfg.resilience.timeout_ms = 300;
  EXPECT_THROW(run_async_engine(cfg), CommTimeout);
}

// Kill/stall faults and checkpointing belong to the sync drivers'
// recovery ladder; the standalone wrapper rejects them loudly instead
// of silently ignoring the plan.
TEST(AsyncFt, KillAndStallAndCheckpointingAreRejected) {
  RunConfig kill = faulted_config();
  kill.resilience.plan = FaultPlan::parse("kill:rank=1,step=4", 1);
  EXPECT_THROW(run_async_engine(kill), std::invalid_argument);

  RunConfig stall = faulted_config();
  stall.resilience.plan = FaultPlan::parse("stall:rank=1,step=4,ms=10", 1);
  EXPECT_THROW(run_async_engine(stall), std::invalid_argument);

  RunConfig ckpt = faulted_config();
  ckpt.resilience.checkpoint_every = 8;
  EXPECT_THROW(run_async_engine(ckpt), std::invalid_argument);
}

}  // namespace
