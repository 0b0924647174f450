// The vpr runtime: multiplexes V virtual processors onto P worker
// threads in step-synchronous supersteps, measures per-VP load, and at a
// configurable interval F invokes a load balancer and migrates VPs by
// PUP pack/unpack — the execution model of Adaptive MPI that the paper's
// "ampi" implementation relies on (§IV-C), with F and the degree of
// over-decomposition d = V/P as the tunables of Figure 5.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "lb/strategy.hpp"
#include "obs/phase.hpp"
#include "vpr/vp.hpp"
#include "ws/pool.hpp"

namespace picprk::vpr {

struct RuntimeConfig {
  int workers = 2;
  int vps = 8;
  /// Invoke the load balancer every `lb_interval` steps (0 = never) —
  /// the paper's F.
  std::uint32_t lb_interval = 0;
  /// lb registry spec, "name[:key=val,...]" — any placement-capable
  /// strategy ("greedy", "refine", "diffusion", "compact", "rotate",
  /// "null", "adaptive", ...). Construction rejects bounds-only specs.
  std::string balancer = "greedy";
  /// Use measured wall time per VP instead of VirtualProcessor::load().
  /// Abstract loads are the default: they are deterministic and match
  /// the PRK's per-particle cost model.
  bool use_measured_load = false;
  /// Telemetry hooks (obs subsystem): when active the runtime registers
  /// its counters/histograms at construction and gives every VP its own
  /// trace lane (one timeline row per VP, so migrations are visible as a
  /// lane going quiet on one worker's schedule). Default: run dark.
  obs::Hooks obs;
};

struct RuntimeStats {
  std::uint32_t steps = 0;
  std::uint64_t messages = 0;
  std::uint64_t message_bytes = 0;
  /// Bytes of messages whose endpoint VPs lived on different workers at
  /// send time — the locality metric behind the paper's strong-scaling
  /// discussion of fragmented subdomains.
  std::uint64_t cross_worker_bytes = 0;
  std::uint64_t lb_invocations = 0;
  std::uint64_t migrations = 0;
  std::uint64_t migrated_bytes = 0;
  double step_seconds = 0.0;  ///< wall time of the superstep loop
  double lb_seconds = 0.0;    ///< wall time inside LB + migration
  /// max/mean worker load sampled just before each LB invocation.
  std::vector<double> imbalance_before_lb;
};

class Runtime {
 public:
  using Factory = std::function<std::unique_ptr<VirtualProcessor>(int vp)>;

  /// Creates the VPs via `factory` and places them blockwise on workers.
  Runtime(RuntimeConfig config, const Factory& factory);

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Executes `steps` supersteps (step → deliver → [LB]). May be called
  /// repeatedly; stats accumulate. When a superstep throws, the clock
  /// and stats().steps stand at the last superstep that completed.
  void run(std::uint32_t steps);

  const RuntimeStats& stats() const { return stats_; }
  const RuntimeConfig& config() const { return config_; }

  int worker_of(int vp) const;
  VirtualProcessor& vp(int id);
  int vps() const { return config_.vps; }

  /// Next step run() will execute.
  std::uint32_t current_step() const { return current_step_; }

  /// Rolls the superstep clock back to `step` and discards all pending
  /// (undelivered) messages and partial load measurements — the runtime
  /// half of a checkpoint rollback. The caller is responsible for
  /// restoring VP state (pup_unpack from a checkpoint) afterwards.
  void rewind(std::uint32_t step);

  /// Localized failure recovery (docs/RESILIENCE.md): permanently
  /// retires `worker` from the live set and immediately re-places its
  /// VPs through the balancer's degraded path (fallback: pure
  /// evacuation onto the least-loaded survivor). Subsequent LB rounds
  /// plan over the shrunken live set; the retired worker is dealt no
  /// tasks. Call between run() invocations, after restoring VP state.
  /// At least one worker must stay live.
  void retire_worker(int worker);

  /// Workers retired so far, sorted ascending.
  const std::vector<int>& dead_workers() const { return dead_workers_; }
  int live_workers() const {
    return config_.workers - static_cast<int>(dead_workers_.size());
  }

  /// Sequential post-run iteration over all VPs (e.g. for verification).
  template <typename F>
  void for_each_vp(F&& fn) {
    for (auto& vp : vps_) fn(*vp);
  }

 private:
  void step_vp(int vp, std::uint32_t global_step);
  void deliver_vp(int vp);
  void maybe_balance(std::uint32_t global_step);
  void route_messages();
  void run_load_balancer(std::uint32_t global_step);
  lb::PlacementInput build_placement_input(std::uint32_t global_step,
                                           std::vector<double>* worker_load,
                                           double* total_measured) const;
  double apply_placement(const lb::PlacementInput& input,
                         const std::vector<int>& remap);

  RuntimeConfig config_;
  Factory factory_;
  std::unique_ptr<lb::Strategy> balancer_;
  std::vector<std::unique_ptr<VirtualProcessor>> vps_;
  std::vector<int> vp_worker_;
  std::vector<int> dead_workers_;  ///< retired workers, sorted ascending
  std::vector<double> vp_measured_seconds_;  ///< since last LB
  // Telemetry handles, registered once at construction (null when
  // config_.obs is inactive). Lanes are per VP; a VP's lane is written
  // only by the task running it, and ownership changes only between
  // supersteps.
  std::vector<obs::TraceLane*> vp_lanes_;
  obs::Histogram* step_hist_ = nullptr;
  obs::Histogram* deliver_hist_ = nullptr;
  obs::Histogram* lb_hist_ = nullptr;
  obs::Counter* messages_counter_ = nullptr;
  obs::Counter* message_bytes_counter_ = nullptr;
  obs::Counter* cross_worker_bytes_counter_ = nullptr;
  obs::Counter* migrations_counter_ = nullptr;
  obs::Counter* migrated_bytes_counter_ = nullptr;
  obs::Counter* lb_invocations_counter_ = nullptr;
  /// Per VP, each written only by the task stepping that VP.
  std::vector<std::vector<VpMessage>> outboxes_;
  std::vector<std::vector<VpMessage>> inboxes_;  ///< per VP
  RuntimeStats stats_;
  std::uint32_t current_step_ = 0;
  /// Runs each phase as one task per VP, placed by vp_worker_, stealing
  /// off: the placement is what the balancer decides and what
  /// cross_worker_bytes measures. No obs hooks, so no ws/* instruments.
  ws::WorkStealingPool pool_;
};

}  // namespace picprk::vpr
