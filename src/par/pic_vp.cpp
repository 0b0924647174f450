#include "par/pic_vp.hpp"

#include <cstring>
#include <optional>
#include <vector>

#include "obs/registry.hpp"
#include "pic/mover.hpp"
#include "util/assert.hpp"
#include "vpr/pup.hpp"

namespace picprk::par {

PicVp::PicVp(int id, std::shared_ptr<const PicVpShared> shared)
    : VirtualProcessor(id),
      shared_(std::move(shared)),
      tracker_(shared_->init, shared_->events) {
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
  if (shared_->injector != nullptr) shared_->injector->begin_step(id(), step);

  tracker_.apply(step, block_, particles_, tiles_);

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
  std::uint64_t removed = tracker_.removed_sum();
  p(removed);
  if (p.unpacking()) tracker_.restore_removed_sum(removed);
  p(sent_particles_);
  if (p.unpacking()) tiles_.mark_dirty();
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

namespace {

vpr::RuntimeConfig runtime_config(const RunConfig& config) {
  PICPRK_EXPECTS(config.workers >= 1);
  PICPRK_EXPECTS(config.overdecomposition >= 1);
  vpr::RuntimeConfig rt;
  rt.workers = config.workers;
  rt.vps = config.workers * config.overdecomposition;
  rt.lb_interval = config.lb.every;
  rt.balancer = config.lb.strategy.empty() ? "greedy" : config.lb.strategy;
  rt.use_measured_load = config.lb.measured;
  rt.obs = config.obs;  // the runtime registers its own instruments
  return rt;
}

}  // namespace

VpHost::VpHost(const RunConfig& config)
    : config_(config),
      injector_(config.resilience.plan),
      shared_(std::make_shared<const PicVpShared>(
          config, config.workers * config.overdecomposition,
          config.resilience.plan.empty() ? nullptr : &injector_)),
      runtime_(runtime_config(config), [shared = shared_](int vp) {
        return std::make_unique<PicVp>(vp, shared);
      }),
      cadence_(config.resilience.checkpoint_cadence()) {
  runtime_.for_each_vp(
      [](vpr::VirtualProcessor& vp) { static_cast<PicVp&>(vp).populate(); });
  local_ = cadence_ > 0 && config.resilience.recovery == RecoveryMode::kLocal;
}

bool VpHost::advance(const obs::StepInstruments* inst) {
  if (cadence_ > 0 && step() % cadence_ == 0) {
    // Double in-memory checkpoint: primary and buddy copy, both keyed by
    // the VP id (the "rank" of a VP host).
    obs::Phase phase(obs::kPhaseCheckpoint, &ft_.checkpoint_seconds,
                     inst != nullptr ? inst->lane : nullptr,
                     inst != nullptr ? inst->checkpoint : nullptr);
    for (int v = 0; v < runtime_.vps(); ++v) {
      std::vector<std::byte> packed = vpr::pup_pack(runtime_.vp(v));
      ft_.checkpoint_bytes += 2 * packed.size();
      store_.save_buddy(v, step(), packed);
      store_.save(v, step(), std::move(packed));
    }
    ++ft_.checkpoints;
  }
  try {
    runtime_.run(1);
    return true;
  } catch (const ft::RankKilled& e) {
    if (cadence_ == 0) throw;
    // Only buddy copies survive the dead VP's memory. In local mode the
    // killed VP's host worker dies with everything it ran, so every
    // co-located VP loses its primary too.
    const int dead_worker = runtime_.worker_of(e.rank());
    for (int v = 0; v < runtime_.vps(); ++v) {
      if (local_ ? runtime_.worker_of(v) == dead_worker : v == e.rank()) {
        store_.drop_primary(v);
      }
    }
    std::uint32_t& attempts = local_ ? ft_.localized : ft_.rollbacks;
    const std::optional<std::uint32_t> consistent = store_.consistent_step(runtime_.vps());
    if (!consistent || attempts >= config_.resilience.max_recoveries) throw;
    ++attempts;
    if (local_) ft_.replayed += step() - *consistent;
    // Rewinding the clock discards pending messages; every VP is then
    // rebuilt from its surviving copy.
    runtime_.rewind(*consistent);
    for (int v = 0; v < runtime_.vps(); ++v) {
      std::optional<std::vector<std::byte>> bytes = store_.load(v, *consistent);
      PICPRK_ASSERT_MSG(bytes.has_value(), "consistent checkpoint is missing a vp snapshot");
      vpr::pup_unpack(runtime_.vp(v), std::move(*bytes));
    }
    // Shrink the live set; the dead worker's VPs evacuate through the
    // balancer's degraded plan before the next superstep.
    if (local_) runtime_.retire_worker(dead_worker);
    return false;
  }
}

VpHost::Tally VpHost::tally() {
  Tally out;
  runtime_.for_each_vp([&](vpr::VirtualProcessor& vp) {
    accumulate_vp_verification(static_cast<PicVp&>(vp), config_, out.vps);
  });
  out.expected_checksum =
      expected_id_checksum(shared_->init, shared_->events, out.vps.removed_id_sum);
  if (obs::Registry* registry = config_.obs.registry;
      registry != nullptr && config_.resilience.active()) {
    for (const obs::Registry* source : {&injector_.metrics(), &store_.metrics()}) {
      for (const auto& view : source->counters()) {
        registry->register_counter(view.name).add(view.value);
      }
    }
  }
  return out;
}

}  // namespace picprk::par
