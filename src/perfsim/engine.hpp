// Step-synchronous makespan engine: executes the exact workload
// evolution (ColumnWorkload) through cost models of the paper's three
// implementations at arbitrary core counts, producing the execution
// times behind Figures 5–7. Deterministic: same inputs, same curves.
//
// Model structure per time step, per core:
//   time(core) = compute(core)/speed(core)·noise(core,step) + comm(core) [+ lb(core)]
//   makespan(step) = max over cores; total = Σ makespans.
// compute is particle work (+ per-VP scheduling overhead for the vpr
// model); comm is α+β message costs for emigrant particles (intra- vs
// inter-node by the core map); lb covers decision rounds and the
// migration of subgrids/particles/VPs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "perfsim/machine.hpp"
#include "perfsim/workload.hpp"

namespace picprk::perfsim {

struct RunConfig {
  std::uint32_t steps = 100;
  /// Cells the distribution shifts right per step: (2k+1).
  std::int64_t shift_per_step = 1;
  /// Collect the per-step compute-imbalance series.
  bool collect_series = false;
  std::uint32_t sample_every = 1;
};

/// y-uniform dynamic event for the model (mirrors pic::EventSchedule for
/// full-height regions).
struct EventModel {
  std::uint32_t step = 0;
  std::int64_t x0 = 0, x1 = 0;       ///< logical column range
  double inject_amount = 0.0;        ///< particles added uniformly
  double remove_fraction = 0.0;      ///< fraction removed
};

struct ModelResult {
  double seconds = 0.0;
  double compute_seconds = 0.0;  ///< Σ max-compute (breakdown)
  double comm_seconds = 0.0;     ///< Σ (makespan − max-compute) excl. LB
  double lb_seconds = 0.0;
  double avg_imbalance = 1.0;    ///< mean over steps of max/mean compute
  double max_particles_final = 0.0;  ///< per-core, end of run (§V-B metric)
  std::uint64_t migrations = 0;      ///< boundary moves or VP migrations
  double migrated_mbytes = 0.0;
  std::vector<double> imbalance_series;
};

/// Mirrors par::DiffusionParams for the model.
struct DiffusionModelParams {
  std::uint32_t frequency = 100;
  double threshold = 0.10;
  std::int64_t border_width = 1;
};

/// Mirrors par::AmpiParams for the model.
struct VprModelParams {
  int overdecomposition = 4;   ///< d
  std::uint32_t lb_interval = 100;  ///< F; 0 = never
  std::string balancer = "greedy";
  /// Balance on measured per-VP time (count / current core speed) rather
  /// than raw particle counts — what lets the runtime absorb category-1
  /// (slow core / noise) imbalance that count-based schemes cannot see.
  bool measured_load = false;
};

class Engine {
 public:
  Engine(MachineModel machine, ColumnWorkload workload);

  void set_events(std::vector<EventModel> events) { events_ = std::move(events); }

  const MachineModel& machine() const { return machine_; }

  /// Serial execution time of the same workload (speedup denominator).
  double serial_seconds(const RunConfig& config) const;

  /// Static 2-D block decomposition — the paper's "mpi-2d".
  ModelResult run_static(int cores, const RunConfig& config) const;

  /// Diffusion-balanced decomposition — the paper's "mpi-2d-LB".
  ModelResult run_diffusion(int cores, const RunConfig& config,
                            const DiffusionModelParams& lb) const;

  /// Over-decomposed runtime-balanced execution — the paper's "ampi".
  ModelResult run_vpr(int cores, const RunConfig& config,
                      const VprModelParams& params) const;

 private:
  void apply_events(ColumnWorkload& w, std::uint32_t step) const;

  MachineModel machine_;
  ColumnWorkload workload_;
  std::vector<EventModel> events_;
};

}  // namespace picprk::perfsim
