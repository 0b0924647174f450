// Driver-level checkpoint/recovery (docs/RESILIENCE.md). For the
// threadcomm drivers a DriverSnapshot is the complete per-rank state of
// the stepping loop at the start of a step; checkpoint_exchange()
// buddy-replicates it (primary copy in the rank's own store slot, one
// copy shipped to rank+1 mod P), and run_resilient() re-runs a driver
// through a fresh World after an injected failure, rolling every rank
// back to the store's last consistent checkpoint. The VP engines (ampi
// and every svc::Job) recover in-process instead: par::VpHost
// (par/pic_vp.hpp) owns their one checkpoint/rollback rung, capped by the
// same ResilienceOptions::max_recoveries.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "comm/message.hpp"
#include "ft/checkpoint.hpp"
#include "ft/fault.hpp"
#include "par/run_config.hpp"
#include "pic/particle.hpp"
#include "vpr/pup.hpp"

namespace picprk::par {

/// Buddy-checkpoint payloads travel under comm::kCheckpointTag from the
/// tag registry in comm/message.hpp.
using comm::kCheckpointTag;

/// Everything a rank needs to re-enter the stepping loop at `step`.
/// Bounds vectors are empty for drivers with a static decomposition.
struct DriverSnapshot {
  std::uint32_t step = 0;
  std::vector<std::int64_t> x_bounds;
  std::vector<std::int64_t> y_bounds;
  std::vector<pic::Particle> particles;
  std::uint64_t removed_sum = 0;  ///< EventTracker local removed-id sum
  std::uint64_t sent = 0;         ///< particles exchanged so far
  std::uint64_t bytes = 0;        ///< exchange bytes so far
  std::uint64_t lb_actions = 0;   ///< mesh transfers so far (diffusion)
  std::uint64_t lb_bytes = 0;     ///< mesh bytes so far (diffusion)
  /// Sampling-series length (imbalance_series entries) at snapshot time,
  /// so a localized restore can truncate the partially-replayed series.
  std::uint64_t samples = 0;

  void pup(vpr::Pup& p);
};

/// Buddy checkpoint round: packs `snap`, keeps the primary in this
/// rank's slot and ships one copy to (rank+1) mod P (stored under this
/// rank's slot as the buddy copy). Collective over `comm`; all ranks
/// must pass the same snap.step. Returns the bytes this rank packed and
/// shipped (for DriverResult::checkpoint_bytes).
std::uint64_t checkpoint_exchange(comm::Comm& comm, ft::CheckpointStore& store,
                                  DriverSnapshot& snap);

/// Restores `rank`'s snapshot at the store's consistent step over
/// `slots` ranks (primary preferred, buddy fallback). nullopt when the
/// store has no consistent line or no copy survived for this rank.
std::optional<DriverSnapshot> restore_snapshot(int rank, int slots,
                                               const ft::CheckpointStore& store);

// ResilienceOptions lives in par/run_config.hpp (a RunConfig fully
// describes a resilient run).

/// What the recovery loop observed — for tools and tests.
struct ResilienceTelemetry {
  std::uint32_t recoveries = 0;  ///< all repairs (rollbacks + localized)
  std::uint32_t rollbacks = 0;   ///< full world-teardown recoveries only
  std::uint32_t localized_recoveries = 0;  ///< in-place buddy restores
  std::uint32_t replayed_steps = 0;  ///< max steps any survivor re-ran
  std::vector<ft::FaultEvent> trace;  ///< deterministic fired-fault trace
  std::uint64_t dropped = 0, duplicated = 0, delayed = 0, kills = 0, stalls = 0;
  std::uint64_t checkpoint_saves = 0;
  std::uint64_t residual_messages = 0;  ///< drained over all aborted runs
  std::uint64_t residual_duplicates = 0;  ///< drained dup/retransmit copies
  std::uint64_t drained_messages = 0;  ///< drained by localized rendezvous
  // Reliable-transport tallies (zero when options.reliable is false).
  std::uint64_t retransmits = 0;
  std::uint64_t dup_dropped = 0;  ///< dedup-window hits at the receiver
  std::uint64_t reordered = 0;
  std::uint64_t abandoned = 0;  ///< messages past the retransmit budget
  std::vector<std::string> failures;    ///< what() of every caught failure
};

using DriverFn = std::function<DriverResult(comm::Comm&, const RunConfig&)>;

/// Runs `driver` on config.ranks threadcomm ranks under fault injection
/// with buddy checkpointing, per config.resilience — the one World
/// wiring of every World-backed engine (baseline, diffusion, async),
/// with or without resilience knobs. On an injected
/// failure (RankKilled, CommTimeout, DeadlockDetected) the aborted world
/// is drained, the dead rank's primary snapshots are discarded, and the
/// driver is re-run with RunConfig::ft.resume set so every rank restarts
/// from the last consistent checkpoint. Rethrows when recovery is
/// impossible (no consistent checkpoint, max_recoveries exceeded, or a
/// non-injected error).
DriverResult run_resilient(const RunConfig& config, const DriverFn& driver,
                           ResilienceTelemetry* telemetry = nullptr);

}  // namespace picprk::par
