// The over-decomposed PIC subdomain as a vpr::VirtualProcessor — the
// unit of work the ampi driver (§IV-C) runs under the vpr runtime — and
// VpHost, the one host of a set of them: run_ampi steps one VpHost, and
// every svc::Job (docs/SERVICE.md) steps its own private one, so the VP
// construction, the resilience wiring (fault injector, checkpoint store,
// cadence), the checkpoint/rollback rung, the step clock and the final
// tally exist once for both. The async engine steps the same PicVps
// over a comm::World instead (par/async.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "comm/cart.hpp"
#include "ft/checkpoint.hpp"
#include "ft/fault.hpp"
#include "obs/phase.hpp"
#include "par/driver_common.hpp"
#include "par/exchange.hpp"
#include "par/run_config.hpp"
#include "pic/charge.hpp"
#include "pic/tiling.hpp"
#include "vpr/runtime.hpp"
#include "vpr/vp.hpp"

namespace picprk::par {

/// Problem state shared (read-only) by all VPs of one kernel instance.
struct PicVpShared {
  pic::InitParams init_params;
  pic::Initializer init;
  pic::EventSchedule events;
  comm::Cart2D vcart;  ///< VP grid (Vx × Vy)
  /// Step faults (kill, stall) addressed by VP id; null = none. Not owned.
  ft::FaultInjector* injector;

  PicVpShared(const DriverConfig& config, int vps, ft::FaultInjector* injector = nullptr)
      : init_params(config.init),
        init(config.init),
        events(config.events),
        vcart(vps),
        injector(injector) {}

  pic::CellRegion vp_block(int vp) const {
    const auto [vx, vy] = vcart.coords_of(vp);
    const auto xr = comm::block_range(init_params.grid.cells, vcart.px(), vx);
    const auto yr = comm::block_range(init_params.grid.cells, vcart.py(), vy);
    return pic::CellRegion{xr.lo, xr.hi, yr.lo, yr.hi};
  }

  int owner_vp(double x, double y) const {
    const auto cx = init_params.grid.cell_of(x);
    const auto cy = init_params.grid.cell_of(y);
    const int vx = comm::block_owner(init_params.grid.cells, vcart.px(), cx);
    const int vy = comm::block_owner(init_params.grid.cells, vcart.py(), cy);
    return vcart.rank_of(vx, vy);
  }
};

/// One subdomain of the over-decomposed PIC problem.
class PicVp final : public vpr::VirtualProcessor {
 public:
  PicVp(int id, std::shared_ptr<const PicVpShared> shared);

  /// Loads the initial particle population (called once, not on
  /// migration — migrated state arrives via pup()).
  void populate();

  void step(vpr::VpContext& ctx) override;
  void deliver(int src_vp, std::vector<std::byte> payload) override;
  double load() const override { return static_cast<double>(particles_.size()); }
  std::vector<int> neighbor_vps() const override;
  void pup(vpr::Pup& p) override;

  const pic::ParticleSoA& particles() const { return particles_; }
  std::uint64_t removed_id_sum() const { return tracker_.removed_sum(); }
  std::uint64_t sent_particles() const { return sent_particles_; }

 private:
  // Members below are either serialized in pup() or tagged pup:transient;
  // picprk-lint's pup rule rejects an untagged member missing from pup().
  std::shared_ptr<const PicVpShared> shared_;  // pup:transient — re-injected by the factory
  pic::CellRegion block_;
  pic::ChargeSlab slab_;
  pic::ParticleSoA particles_;
  pic::TileIndex tiles_;  // pup:transient — rebuilt from the store after unpack
  EventTracker tracker_;  ///< applies the events; pups its removed-id sum
  std::uint64_t sent_particles_ = 0;
  // Routing scratch: a migrated VP simply re-warms its buffers.
  ExchangeBuffers route_;  // pup:transient
};

/// End-of-run verification tallies over a set of vpr-hosted PicVps.
struct VpVerifyTally {
  pic::VerifyResult verify;
  std::uint64_t removed_id_sum = 0;
  std::uint64_t sent_particles = 0;
};

/// Folds one VP's final population into the closed-form check: position
/// verification against the analytic trajectory plus the removed-id and
/// sent-particle tallies that feed `expected_id_checksum`. Shared by
/// VpHost and run_async so every host of the VP classes finalizes
/// against the identical invariant.
void accumulate_vp_verification(const PicVp& vp, const DriverConfig& config,
                                VpVerifyTally& tally);

/// One vpr-hosted kernel instance — the PicVpShared, the vpr::Runtime
/// over its populated VPs and their in-process checkpoint/rollback rung
/// (docs/RESILIENCE.md). It alone turns config.resilience into a fault
/// injector (step faults by VP id), a checkpoint store and a cadence.
/// Runtime::current_step() is its only step clock.
class VpHost {
 public:
  /// What the checkpoint/rollback rung did so far.
  struct FtStats {
    std::uint64_t checkpoints = 0;
    std::uint64_t checkpoint_bytes = 0;
    double checkpoint_seconds = 0.0;
    std::uint32_t rollbacks = 0;
    std::uint32_t localized = 0;  ///< localized restores (worker retired)
    std::uint32_t replayed = 0;   ///< steps re-run after localized restores
    std::uint32_t recoveries() const { return rollbacks + localized; }
  };
  struct Tally {
    VpVerifyTally vps;
    std::uint64_t expected_checksum = 0;
  };

  /// config.workers · config.overdecomposition populated VPs on
  /// config.workers workers, balanced every config.lb.every steps by
  /// config.lb.strategy (empty = "greedy"), instrumented on config.obs.
  explicit VpHost(const RunConfig& config);
  VpHost(const VpHost&) = delete;
  VpHost& operator=(const VpHost&) = delete;

  /// Checkpoints when due (config.resilience.checkpoint_cadence()), then
  /// runs one superstep: true. On an injected VP death: drops the lost
  /// primaries (the VP's, or in local mode its worker's), restores the
  /// newest consistent step, retires the worker in local mode, and
  /// returns false. Rethrows without a consistent step
  /// or after config.resilience.max_recoveries repairs of that kind.
  /// `inst` receives the checkpoint phase.
  bool advance(const obs::StepInstruments* inst = nullptr);

  std::uint32_t step() const { return runtime_.current_step(); }
  bool done() const { return step() >= config_.steps; }
  const PicVpShared& shared() const { return *shared_; }
  vpr::Runtime& runtime() { return runtime_; }
  PicVp& vp(int id) { return static_cast<PicVp&>(runtime_.vp(id)); }
  const FtStats& ft() const { return ft_; }

  /// The closed-form check over every VP's final population. Call once,
  /// at the end: when a resilience knob is set it also folds the
  /// injector's and the store's counters into config.obs.registry.
  Tally tally();

 private:
  RunConfig config_;
  ft::FaultInjector injector_;
  ft::CheckpointStore store_;
  std::shared_ptr<const PicVpShared> shared_;
  vpr::Runtime runtime_;
  bool local_ = false;
  std::uint32_t cadence_ = 0;  ///< 0 = no checkpoints
  FtStats ft_;
};

}  // namespace picprk::par
