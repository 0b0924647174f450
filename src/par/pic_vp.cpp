#include "par/pic_vp.hpp"

#include <cstring>

#include "ft/fault.hpp"
#include "pic/mover.hpp"
#include "util/assert.hpp"
#include "vpr/pup.hpp"

namespace picprk::par {

PicVp::PicVp(int id, std::shared_ptr<const PicVpShared> shared)
    : VirtualProcessor(id), shared_(std::move(shared)) {
  block_ = shared_->vp_block(id);
  tiles_.reset_region(block_);
  const pic::AlternatingColumnCharges pattern(shared_->init_params.mesh_q);
  slab_ = pic::ChargeSlab::sample(pattern, block_.x0, block_.y0, block_.width() + 1,
                                  block_.height() + 1);
}

void PicVp::populate() {
  particles_ = pic::to_soa(
      shared_->init.create_block(block_.x0, block_.x1, block_.y0, block_.y1));
  tiles_.mark_dirty();
}

void PicVp::step(vpr::VpContext& ctx) {
  const pic::GridSpec& grid = shared_->init_params.grid;
  const std::uint32_t step = ctx.step();

  // Scripted step faults address VPs here (there are no world ranks).
  // No abort flag exists under vpr, so finite stalls sleep in full;
  // infinite stalls (ms=inf) are a threadcomm-only scenario.
  if (shared_->ft.injector != nullptr) {
    shared_->ft.injector->begin_step(id(), step);
  }

  // Events are rare: stage through the AoS wire form only on steps
  // where something is scheduled (free otherwise).
  if (!shared_->events.empty() && shared_->events.scheduled_at(step)) {
    std::vector<pic::Particle> staging = pic::to_aos(particles_);
    for (std::size_t e = 0; e < shared_->events.removals().size(); ++e) {
      if (shared_->events.removals()[e].step != step) continue;
      const pic::CellRegion& region = shared_->events.removals()[e].region;
      for (const pic::Particle& p : staging) {
        const auto cx = grid.cell_of(p.x);
        const auto cy = grid.cell_of(p.y);
        if (region.contains_cell(cx, cy) && shared_->events.removes(shared_->init, e, p.id)) {
          removed_id_sum_ += p.id;
        }
      }
    }
    shared_->events.apply_step(shared_->init, step, block_.x0, block_.x1, block_.y0,
                               block_.y1, staging);
    particles_.assign(staging);
    tiles_.mark_dirty();
  }

  pic::move_all_tiled(particles_, tiles_, grid, slab_, shared_->init_params.dt);

  // Route emigrants to their owner VPs (static VP decomposition) with
  // the exchange's post-move split: owner once per tile, emigrant tiles
  // and tail rows packed into wire records grouped by destination. All
  // routing scratch is VP-owned and reused every step; outgoing byte
  // payloads come from the pool that recycles delivered messages, so
  // steady-state routing allocates nothing.
  const PicVpShared& shared = *shared_;
  sent_particles_ += split_emigrants(
      [&shared](double x, double y) { return shared.owner_vp(x, y); }, id(), particles_,
      tiles_, route_);
  const pic::Particle* records = route_.packed.data();
  for (std::size_t j = 0; j < route_.dsts.size(); ++j) {
    const std::size_t count = route_.dst_counts[j];
    std::vector<std::byte> bytes = route_.pool.acquire(count * sizeof(pic::Particle));
    std::memcpy(bytes.data(), records, bytes.size());
    records += count;
    ctx.send(route_.dsts[j], std::move(bytes));
  }
}

void PicVp::deliver(int /*src_vp*/, std::vector<std::byte> payload) {
  PICPRK_ASSERT(payload.size() % sizeof(pic::Particle) == 0);
  const std::size_t count = payload.size() / sizeof(pic::Particle);
  if (count > 0) {
    // Wire records land in the untiled tail; the tile index stays
    // valid and the next move's flat pass covers them.
    route_.received.resize(count);
    std::memcpy(route_.received.data(), payload.data(), payload.size());
    particles_.append(std::span<const pic::Particle>(route_.received));
  }
  route_.pool.release(std::move(payload));  // becomes next step's send staging
}

std::vector<int> PicVp::neighbor_vps() const {
  // 4-neighborhood on the periodic VP grid.
  const auto& cart = shared_->vcart;
  return {cart.neighbor(id(), 1, 0), cart.neighbor(id(), -1, 0),
          cart.neighbor(id(), 0, 1), cart.neighbor(id(), 0, -1)};
}

void PicVp::pup(vpr::Pup& p) {
  // Complete VP state: subdomain coordinates, the subgrid charges (the
  // data a distributed runtime would ship), and the particles.
  p(block_.x0);
  p(block_.x1);
  p(block_.y0);
  p(block_.y1);
  std::int64_t sx0 = slab_.x0(), sy0 = slab_.y0(), sw = slab_.width(), sh = slab_.height();
  p(sx0);
  p(sy0);
  p(sw);
  p(sh);
  if (p.unpacking()) {
    std::vector<double> values;
    p(values);
    slab_ = pic::ChargeSlab::from_values(sx0, sy0, sw, sh, std::move(values));
  } else {
    // Pack the live slab values in row-major order (matching
    // from_values above).
    std::vector<double> values;
    values.reserve(static_cast<std::size_t>(sw * sh));
    for (std::int64_t j = 0; j < sh; ++j)
      for (std::int64_t i = 0; i < sw; ++i) values.push_back(slab_.at(sx0 + i, sy0 + j));
    p(values);
  }
  particles_.pup(p);  // stages through the AoS wire form
  p(removed_id_sum_);
  p(sent_particles_);
  if (p.unpacking()) tiles_.mark_dirty();
}

std::uint64_t vpr_expected_checksum(const pic::Initializer& init,
                                    const pic::EventSchedule& events,
                                    std::uint64_t removed_id_sum) {
  std::uint64_t expected = pic::expected_checksum(init.total());
  for (std::size_t e = 0; e < events.injections().size(); ++e) {
    const std::uint64_t first = events.injection_first_id(init, e);
    const std::uint64_t count = events.injection_total(init, e);
    if (count > 0) expected += count * first + count * (count - 1) / 2;
  }
  return expected - removed_id_sum;
}

void accumulate_vp_verification(const PicVp& vp, const DriverConfig& config,
                                VpVerifyTally& tally) {
  const std::vector<pic::Particle> aos = pic::to_aos(vp.particles());
  tally.verify = pic::merge(
      tally.verify, pic::verify_particles(std::span<const pic::Particle>(aos),
                                          config.init.grid, config.steps,
                                          config.verify_epsilon));
  tally.removed_id_sum += vp.removed_id_sum();
  tally.sent_particles += vp.sent_particles();
}

}  // namespace picprk::par
