// The over-decomposed PIC subdomain as a vpr::VirtualProcessor — the
// unit of work the ampi driver (§IV-C) runs under the vpr runtime.
// Extracted from ampi.cpp so the svc job server (docs/SERVICE.md) can
// host many independent kernel instances: each svc::Job builds its own
// PicVpShared + VP set and steps them through a private runtime, while
// run_ampi keeps using exactly the same classes for its single-job run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "comm/cart.hpp"
#include "ft/options.hpp"
#include "par/driver_common.hpp"
#include "par/exchange.hpp"
#include "pic/charge.hpp"
#include "pic/tiling.hpp"
#include "vpr/vp.hpp"

namespace picprk::par {

/// Problem state shared (read-only) by all VPs of one kernel instance.
struct PicVpShared {
  pic::InitParams init_params;
  pic::Initializer init;
  pic::EventSchedule events;
  comm::Cart2D vcart;  ///< VP grid (Vx × Vy)
  ft::FtOptions ft;    ///< fault/checkpoint hooks; rank space = VP ids

  PicVpShared(const DriverConfig& config, int vps)
      : init_params(config.init),
        init(config.init),
        events(config.events),
        vcart(vps),
        ft(config.ft) {}

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
  std::uint64_t removed_id_sum() const { return removed_id_sum_; }
  std::uint64_t sent_particles() const { return sent_particles_; }

 private:
  // Members below are either serialized in pup() or tagged pup:transient;
  // picprk-lint's pup rule rejects an untagged member missing from pup().
  std::shared_ptr<const PicVpShared> shared_;  // pup:transient — re-injected by the factory
  pic::CellRegion block_;
  pic::ChargeSlab slab_;
  pic::ParticleSoA particles_;
  pic::TileIndex tiles_;  // pup:transient — rebuilt from the store after unpack
  std::uint64_t removed_id_sum_ = 0;
  std::uint64_t sent_particles_ = 0;
  // Routing scratch: a migrated VP simply re-warms its buffers.
  ExchangeBuffers route_;  // pup:transient
};

/// The closed-form id checksum a finished vpr-hosted kernel instance
/// must reproduce: Σ id over the initial population (n(n+1)/2 by
/// construction), plus every scheduled injection's id range, minus the
/// ids actually removed (summed over the VPs). Shared by run_ampi and
/// the svc job server so both verify against the identical invariant.
std::uint64_t vpr_expected_checksum(const pic::Initializer& init,
                                    const pic::EventSchedule& events,
                                    std::uint64_t removed_id_sum);

/// End-of-run verification tallies over a set of vpr-hosted PicVps.
struct VpVerifyTally {
  pic::VerifyResult verify;
  std::uint64_t removed_id_sum = 0;
  std::uint64_t sent_particles = 0;
};

/// Folds one VP's final population into the closed-form check: position
/// verification against the analytic trajectory plus the removed-id and
/// sent-particle tallies that feed `vpr_expected_checksum`. Shared by
/// run_ampi, run_async and svc::Job so every host of the VP classes
/// finalizes against the identical invariant.
void accumulate_vp_verification(const PicVp& vp, const DriverConfig& config,
                                VpVerifyTally& tally);

}  // namespace picprk::par
