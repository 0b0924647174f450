// One aggregate for everything a parallel run needs — grid, particles,
// distribution, steps, events (all inherited from DriverConfig), plus
// the parallel-shape knobs, the load-balancing strategy selection and
// the resilience plan. tools/picprk.cpp parses the command line into a
// RunConfig exactly once and passes it by const reference to every
// driver; benches and tests construct it directly instead of mirroring
// flag parsing. This retires the per-driver parameter structs
// (DiffusionParams, AmpiParams) and the long positional signatures of
// run_block/run_ampi/run_resilient.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "ft/fault.hpp"
#include "par/driver_common.hpp"

namespace picprk::par {

/// Load-balancing selection, uniform across drivers: the lb registry
/// spec plus the invocation cadence. The strategy-specific knobs
/// (threshold, border, tolerance, hysteresis, ...) travel inside the
/// spec string — `diffusion:threshold=0.2,border=2` — so drivers stay
/// oblivious of them.
struct LbOptions {
  /// lb registry spec, "name[:key=val,...]". Empty = the driver's
  /// canonical default ("diffusion" for the boundary driver, "greedy"
  /// for ampi — the paper's §IV-B/§IV-C pairing).
  std::string strategy;
  /// Steps between LB invocations — the paper's co-tuned F (0 = never).
  std::uint32_t every = 16;
  /// Feed the strategy measured compute seconds instead of particle
  /// counts (the measurement-driven assessment of Rowan et al.).
  bool measured = false;
};

/// How a confirmed rank failure is repaired — the middle and bottom
/// rungs of the retry → localized-recovery → rollback ladder
/// (docs/RESILIENCE.md).
enum class RecoveryMode {
  /// Tear the world down and re-run every rank from the last consistent
  /// checkpoint (the classical global rung; the only one before this
  /// option existed).
  kRollback,
  /// Keep the world alive: the surviving ranks rendezvous in-process,
  /// only the dead rank's state is rebuilt from its buddy copy, and
  /// everyone replays at most one step. Falls back to kRollback when
  /// the rendezvous itself fails. Forces checkpoint_every = 1.
  kLocal,
};

/// Knobs of one resilient run; defaults = no faults, no checkpoints.
/// (Lives here so a RunConfig fully describes a resilient run; the
/// recovery loop itself is par/resilient.hpp.)
struct ResilienceOptions {
  ft::FaultPlan plan;
  /// Checkpoint at the start of every N-th step (0 = never).
  std::uint32_t checkpoint_every = 0;
  /// Per-call blocking-recv deadline in ms (0 = wait forever).
  int timeout_ms = 0;
  /// Deadlock-detector window in ms (0 = off).
  int deadlock_ms = 0;
  /// Give up (rethrow) after this many rollbacks. The VP engines (ampi,
  /// svc jobs) cap each of their two rungs, rollback and localized, by it.
  std::uint32_t max_recoveries = 3;
  /// Repair rung for confirmed rank failures.
  RecoveryMode recovery = RecoveryMode::kRollback;
  /// In-band reliable transport (comm/reliable.hpp): message-fault
  /// drops/dups/reorders heal transparently under the mailbox; a
  /// CommTimeout then signals *suspected permanent* failure instead of
  /// a lost packet.
  bool reliable = false;
  /// Retransmit timer of the reliable transport in ms.
  int rto_ms = 20;
  /// Retransmissions per message before the transport abandons it.
  int retransmit_budget = 8;

  bool active() const {
    return !plan.empty() || checkpoint_every > 0 || timeout_ms > 0 ||
           deadlock_ms > 0 || recovery == RecoveryMode::kLocal || reliable;
  }

  /// Steps between the checkpoints a driver takes (0 = none): localized
  /// recovery checkpoints every step, so the survivors replay at most one.
  std::uint32_t checkpoint_cadence() const {
    if (checkpoint_every == 0) return 0;
    return recovery == RecoveryMode::kLocal ? 1 : checkpoint_every;
  }

  /// Loud cross-knob validation, mirroring the lb spec parser: a
  /// nonsensical combination throws std::invalid_argument naming the
  /// knobs instead of silently running a plan that cannot work.
  void validate() const {
    if (recovery == RecoveryMode::kLocal && checkpoint_every == 0) {
      throw std::invalid_argument(
          "resilience: recovery=local requires checkpointing "
          "(checkpoint_every > 0); localized recovery restores the dead "
          "rank from its buddy copy");
    }
    if (reliable && rto_ms <= 0) {
      throw std::invalid_argument(
          "resilience: reliable transport requires rto_ms > 0, got " +
          std::to_string(rto_ms));
    }
    if (reliable && retransmit_budget < 0) {
      throw std::invalid_argument(
          "resilience: retransmit_budget must be >= 0, got " +
          std::to_string(retransmit_budget));
    }
    if (reliable && timeout_ms > 0 && timeout_ms < rto_ms) {
      throw std::invalid_argument(
          "resilience: timeout_ms (" + std::to_string(timeout_ms) +
          ") is shorter than the retransmit interval rto_ms (" +
          std::to_string(rto_ms) +
          ") — every recv would time out before the first retransmission");
    }
  }
};

/// The complete description of one parallel run.
struct RunConfig : DriverConfig {
  /// Which engine executes the run — a par::engine_names() entry
  /// ("serial", "baseline", "diffusion", "ampi", "async"). Resolved by
  /// par::make_engine; drivers themselves never read it.
  std::string impl = "baseline";
  /// threadcomm ranks (baseline/diffusion drivers).
  int ranks = 4;
  /// ampi: worker threads.
  int workers = 2;
  /// ampi: over-decomposition degree d (vps = d · workers, Figure 5).
  int overdecomposition = 4;
  LbOptions lb;
  ResilienceOptions resilience;
};

}  // namespace picprk::par
