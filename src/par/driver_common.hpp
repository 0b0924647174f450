// Shared scaffolding of the parallel PIC drivers: configuration, result
// records, event bookkeeping and verification merging. The parallel
// drivers (block for baseline and diffusion-LB, ampi/vpr, async) share
// these so that their outputs are directly comparable — the essence of
// using the PRK as a measuring instrument.
#pragma once

#include <cstdint>
#include <vector>

#include "comm/comm.hpp"
#include "ft/options.hpp"
#include "obs/phase.hpp"
#include "obs/sinks.hpp"
#include "pic/events.hpp"
#include "pic/init.hpp"
#include "pic/tiling.hpp"
#include "pic/verify.hpp"

namespace picprk::par {

struct DriverConfig {
  pic::InitParams init;
  std::uint32_t steps = 10;
  pic::EventSchedule events;
  double verify_epsilon = pic::kVerifyEpsilon;
  /// When > 0, sample the global load imbalance (max/mean particles per
  /// rank) every this many steps into DriverResult::imbalance_series.
  std::uint32_t sample_every = 0;
  /// Fault-tolerance hooks of the block drivers: injector, store,
  /// coordinator, resume flag. par::run_resilient wires them from
  /// RunConfig::resilience; all defaulted = one branch per step.
  ft::FtOptions ft;
  /// Telemetry hooks (obs subsystem). Both pointers null (the default)
  /// = run dark; with a registry/trace attached the drivers register
  /// their per-rank instruments at setup and record phases per step.
  obs::Hooks obs;
};

struct PhaseBreakdown {
  double compute = 0.0;     ///< force + move
  double exchange = 0.0;    ///< particle routing
  double lb = 0.0;          ///< load-balance decision + migration
  double checkpoint = 0.0;  ///< snapshot pack + store rounds
};

struct DriverResult {
  pic::VerifyResult verification;  ///< merged over all ranks
  std::uint64_t expected_id_checksum = 0;
  bool ok = false;

  std::uint64_t final_particles = 0;
  /// Max particles on any rank at the end of the run — the paper's §V-B
  /// balance metric (62,645 baseline vs 30,585 diffusion vs 25,000 ideal).
  std::uint64_t max_particles_per_rank = 0;
  double ideal_particles_per_rank = 0.0;

  double seconds = 0.0;  ///< wall time of the stepping loop, max over ranks
  PhaseBreakdown phases; ///< per-phase totals, max over ranks

  std::uint64_t particles_exchanged = 0;  ///< global, whole run
  std::uint64_t exchange_bytes = 0;       ///< global, whole run
  std::uint64_t lb_actions = 0;           ///< boundary moves / VP migrations
  std::uint64_t lb_bytes = 0;             ///< mesh + particle bytes moved by LB

  /// Resilience bookkeeping (zero when DriverConfig::ft is inactive).
  std::uint64_t checkpoints = 0;       ///< checkpoint rounds completed
  std::uint64_t checkpoint_bytes = 0;  ///< snapshot bytes packed + shipped, global
  std::uint32_t recoveries = 0;        ///< rollbacks/restarts behind this result
  std::uint32_t localized_recoveries = 0;  ///< in-place buddy restores (no restart)
  std::uint32_t replayed_steps = 0;  ///< max steps any rank re-ran, over all repairs

  /// max/mean particle ratio sampled every `sample_every` steps.
  std::vector<double> imbalance_series;
  /// Full telemetry samples (lambda over particles and compute time)
  /// taken alongside imbalance_series; only populated when
  /// DriverConfig::obs is active. Identical on every rank.
  std::vector<obs::StepSample> step_samples;
};

/// The closed-form id checksum a finished run must reproduce (paper
/// §III-D): Σ id = n(n+1)/2 over the initial population, plus every
/// scheduled injection's id range, minus `removed_id_sum`, the ids the
/// removal events took out (summed over all ranks or VPs). Every
/// parallel engine verifies against it.
std::uint64_t expected_id_checksum(const pic::Initializer& init,
                                   const pic::EventSchedule& events,
                                   std::uint64_t removed_id_sum);

/// Applies the population events to one rank's (or VP's) particles and
/// sums the ids its removals take out — the one input of
/// expected_id_checksum that is not globally computable.
class EventTracker {
 public:
  EventTracker(const pic::Initializer& init, const pic::EventSchedule& events);

  /// Applies the events scheduled for `step` to this rank's particles
  /// (restricted to its block) and records removed ids.
  void apply(std::uint32_t step, const pic::CellRegion& block,
             std::vector<pic::Particle>& particles);

  /// SoA-store variant: events are rare, so they run on an AoS staging
  /// copy and the store is rebuilt from it — only on steps where
  /// something is actually scheduled (free otherwise). Invalidates a
  /// maintained tile index (population and order change).
  void apply(std::uint32_t step, const pic::CellRegion& block,
             pic::ParticleSoA& particles, pic::TileIndex& tiles);

  /// Checkpoint/restart access to the only mutable tracker state: the
  /// sum of ids this rank has removed so far.
  std::uint64_t removed_sum() const { return local_removed_sum_; }
  void restore_removed_sum(std::uint64_t sum) { local_removed_sum_ = sum; }

 private:
  const pic::Initializer& init_;
  const pic::EventSchedule& events_;
  std::uint64_t local_removed_sum_ = 0;
};

/// Merges per-rank verification results into the global one (collective).
pic::VerifyResult merge_verification(comm::Comm& comm, const pic::VerifyResult& local);

/// Samples the global imbalance ratio max/mean of per-rank loads
/// (collective; two fused allreduces).
double sample_imbalance(comm::Comm& comm, std::uint64_t local_count);

/// Full telemetry sample: one fused allreduce over {count max, count
/// sum, compute-seconds max, compute-seconds sum}, reduced to lambda =
/// max/mean for both particle counts and measured compute time
/// (collective; identical result on every rank).
obs::StepSample sample_step_telemetry(comm::Comm& comm, int step,
                                      std::uint64_t local_count,
                                      double local_compute_seconds);

/// One rank's end-of-run totals, reduced by finalize_result.
struct RankTotals {
  pic::VerifyResult verify;
  std::uint64_t removed_id_sum = 0;  ///< ids this rank's removal events took out
  std::uint64_t particles = 0;
  double seconds = 0.0;
  PhaseBreakdown phases;
  std::uint64_t sent = 0;
  std::uint64_t bytes = 0;
  std::uint64_t lb_actions = 0;
  std::uint64_t lb_bytes = 0;
};

/// Reduces every rank's totals into `result` — verification against
/// expected_id_checksum, sums and maxima (collective; the result is
/// identical on every rank).
void finalize_result(comm::Comm& comm, const pic::Initializer& init,
                     const pic::EventSchedule& events, const RankTotals& local,
                     DriverResult& result);

}  // namespace picprk::par
