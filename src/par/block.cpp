#include "par/block.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "comm/cart.hpp"
#include "comm/mailbox.hpp"
#include "ft/coordinator.hpp"
#include "lb/registry.hpp"
#include "par/decomposition.hpp"
#include "par/exchange.hpp"
#include "par/resilient.hpp"
#include "pic/charge.hpp"
#include "pic/mover.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace picprk::par {

namespace {

using comm::kMeshTag;

struct MeshMigration {
  std::uint64_t bytes_sent = 0;
  std::uint64_t transfers = 0;
  std::vector<double> recv_scratch;  // reused across migrations (recv_into)
};

/// A contiguous run of mesh-point columns/rows one rank ships to
/// another, derived identically on every rank from the old/new bounds.
struct MeshTransfer {
  int partner = 0;
  std::int64_t lo = 0;  ///< half-open point range [lo, hi)
  std::int64_t hi = 0;
};

/// The provider point-interval of part `p` under `bounds`: part p owns
/// every mesh point whose clamped cell index falls in its old cell
/// range, i.e. points [bounds[p], bounds[p+1]) plus the domain-edge
/// point `cells` when p is the last part. Contiguous by construction.
std::pair<std::int64_t, std::int64_t> provider_points(
    const std::vector<std::int64_t>& bounds, std::size_t p) {
  const std::int64_t cells = bounds.back();
  const std::int64_t hi = bounds[p + 1];
  return {bounds[p], hi == cells ? cells + 1 : hi};  // half-open
}

/// Rebuilds this rank's charge slab for a new block by shipping the
/// mesh values that changed owner — the paper's "migrating the
/// underlying subgrids" cost. Unlike the original pairwise protocol
/// this matches providers and receivers globally, so a strategy that
/// moves a boundary past its old neighbor (rcb) works too; for
/// single-border diffusion moves it reduces to exactly the old
/// adjacent-rank exchange (same payloads, counts and bytes). Every
/// received value is checked against the analytic pattern — a protocol
/// error shows up immediately instead of corrupting forces.
///
/// `axis` is 0 for x-boundary moves (the bounds are processor-column
/// bounds; payloads are point columns), 1 for y. `my_index` is this
/// rank's coordinate along the axis; `rank_at` maps an axis coordinate
/// to the communicating rank (same row/column as this rank).
template <typename RankAt>
void migrate_mesh_axis(comm::Comm& comm, const pic::ChargeSlab& slab,
                       const pic::AlternatingColumnCharges& pattern, int axis,
                       const std::vector<std::int64_t>& old_b,
                       const std::vector<std::int64_t>& new_b, std::size_t my_index,
                       const RankAt& rank_at, MeshMigration& stats) {
  const std::size_t parts = old_b.size() - 1;

  // Intersection of `q`'s needed points (new range minus old range) with
  // this provider interval. The needed set has a left run (below the old
  // range) and a right run (above); a provider interval, being disjoint
  // from q's old interval, overlaps at most one of them.
  const auto needed_from = [&](std::size_t q, std::int64_t prov_lo,
                               std::int64_t prov_hi) -> std::pair<std::int64_t, std::int64_t> {
    const std::int64_t new_lo = new_b[q], new_hi = new_b[q + 1] + 1;  // half-open points
    const std::int64_t old_lo = old_b[q], old_hi = old_b[q + 1] + 1;
    // Left run [new_lo, old_lo), right run [old_hi, new_hi).
    const std::int64_t left_lo = std::max(new_lo, prov_lo);
    const std::int64_t left_hi = std::min(old_lo, prov_hi);
    if (left_hi > left_lo) return {left_lo, left_hi};
    const std::int64_t right_lo = std::max(old_hi, prov_lo);
    const std::int64_t right_hi = std::min(new_hi, prov_hi);
    if (right_hi > right_lo) return {right_lo, right_hi};
    return {0, 0};
  };

  // Outgoing: serve every other part from this rank's provider interval.
  std::vector<MeshTransfer> sends;
  {
    const auto [prov_lo, prov_hi] = provider_points(old_b, my_index);
    for (std::size_t q = 0; q < parts; ++q) {
      if (q == my_index) continue;
      const auto [lo, hi] = needed_from(q, prov_lo, prov_hi);
      if (hi > lo) sends.push_back(MeshTransfer{rank_at(q), lo, hi});
    }
  }
  // Incoming: this rank's needed points, grouped by provider.
  std::vector<MeshTransfer> recvs;
  for (std::size_t p = 0; p < parts; ++p) {
    if (p == my_index) continue;
    const auto [prov_lo, prov_hi] = provider_points(old_b, p);
    const auto [lo, hi] = needed_from(my_index, prov_lo, prov_hi);
    if (hi > lo) recvs.push_back(MeshTransfer{rank_at(p), lo, hi});
  }

  // Mailbox sends are buffered, so ship everything before receiving;
  // partner order is ascending on both sides, so per-pair streams match.
  for (const MeshTransfer& t : sends) {
    const std::vector<double> payload =
        axis == 0 ? slab.extract_columns(t.lo, t.hi) : slab.extract_rows(t.lo, t.hi);
    stats.bytes_sent += payload.size() * sizeof(double);
    ++stats.transfers;
    comm.send(payload, t.partner, kMeshTag);
  }
  for (const MeshTransfer& t : recvs) {
    comm.recv_into(stats.recv_scratch, t.partner, kMeshTag);
    const std::vector<double>& payload = stats.recv_scratch;
    ++stats.transfers;
    // Integrity check: the received subgrid must match the
    // specification pattern (columns depend only on the point x-index).
    const std::int64_t span0 = axis == 0 ? slab.height() : slab.width();
    PICPRK_ASSERT_MSG(payload.size() ==
                          static_cast<std::size_t>((t.hi - t.lo) * span0),
                      "mesh migration payload has the wrong size");
    std::size_t idx = 0;
    for (std::int64_t line = t.lo; line < t.hi; ++line) {
      for (std::int64_t j = 0; j < span0; ++j, ++idx) {
        const double expect = axis == 0 ? pattern.at(line, slab.y0() + j)
                                        : pattern.at(slab.x0() + j, line);
        PICPRK_ASSERT_MSG(payload[idx] == expect,
                          "mesh migration delivered corrupted charges");
      }
    }
  }
}

}  // namespace

DriverResult run_block(comm::Comm& comm, const RunConfig& config) {
  const std::string spec =
      config.lb.strategy.empty() ? "diffusion" : config.lb.strategy;
  const std::unique_ptr<lb::Strategy> strategy = lb::make_strategy(spec);
  if (!strategy->balances_bounds()) {
    throw std::invalid_argument("lb: strategy '" + strategy->name() +
                                "' cannot move decomposition bounds (placement-only; "
                                "use the ampi driver)");
  }
  const std::uint32_t lb_every = config.lb.every;
  const lb::LoadMetric metric =
      config.lb.measured ? lb::LoadMetric::kComputeSeconds : lb::LoadMetric::kParticles;

  const comm::Cart2D cart(comm.size());
  Decomposition2D decomp(config.init.grid, cart);
  const pic::GridSpec& grid = config.init.grid;
  const auto [my_cx, my_cy] = cart.coords_of(comm.rank());

  const pic::Initializer init(config.init);
  pic::CellRegion block = decomp.block_of(comm.rank());
  // Production store is SoA + cell tiles; AoS only at wire boundaries.
  pic::ParticleSoA particles =
      pic::to_soa(init.create_block(block.x0, block.x1, block.y0, block.y1));
  pic::TileIndex tiles(block);
  const pic::AlternatingColumnCharges pattern(config.init.mesh_q);
  pic::ChargeSlab slab = pic::ChargeSlab::sample(
      pattern, block.x0, block.y0, block.width() + 1, block.height() + 1);

  EventTracker tracker(init, config.events);

  DriverResult result;
  double compute_seconds = 0.0, exchange_seconds = 0.0, lb_seconds = 0.0,
         checkpoint_seconds = 0.0;
  ExchangeBuffers exchange_buffers;  // steady-state exchange allocates nothing
  MeshMigration mesh_stats;

  // All registration/allocation happens here, before the step loop.
  const obs::StepInstruments inst(config.obs, config.impl, 0,
                                  "rank " + std::to_string(comm.rank()), comm.rank(),
                                  static_cast<std::size_t>(config.steps) * 4 + 8);
  exchange_buffers.sent_counter = inst.exchange_sent;
  exchange_buffers.received_counter = inst.exchange_received;
  exchange_buffers.bytes_counter = inst.exchange_bytes;

  auto rebuild_slab = [&]() {
    block = decomp.block_of(comm.rank());
    slab = pic::ChargeSlab::sample(pattern, block.x0, block.y0, block.width() + 1,
                                   block.height() + 1);
    // The tile index follows the owned block; re-targeting marks it
    // dirty, so the next tiled move re-sorts against the new region.
    tiles.reset_region(block);
  };

  // Measurement state for the strategy layer: compute seconds since the
  // last LB event (measured-load metric + the adaptive cost model) and
  // the step of that event (interval length).
  double interval_compute_start = 0.0;
  std::uint32_t last_lb_step = 0;

  /// Re-enters the loop from `snap`, the start-of-step state of
  /// snap.step; shared by resume-from-store and localized restore. The
  /// decomposition moves under this driver: the boundary vectors come
  /// first, then the block and charge slab are rebuilt for them. Samples
  /// taken during a replayed fraction are discarded (the series must
  /// read as if the failure never happened), and the LB measurement
  /// interval restarts here so the cost model never sees a
  /// half-replayed interval.
  const auto adopt = [&](const DriverSnapshot& snap) -> std::uint32_t {
    decomp.set_x_bounds(snap.x_bounds);
    decomp.set_y_bounds(snap.y_bounds);
    rebuild_slab();
    particles.assign(std::span<const pic::Particle>(snap.particles));
    tracker.restore_removed_sum(snap.removed_sum);
    exchange_buffers.totals.sent = snap.sent;
    exchange_buffers.totals.bytes = snap.bytes;
    mesh_stats.transfers = snap.lb_actions;
    mesh_stats.bytes_sent = snap.lb_bytes;
    if (result.imbalance_series.size() > snap.samples) {
      result.imbalance_series.resize(snap.samples);
    }
    if (result.step_samples.size() > snap.samples) {
      result.step_samples.resize(snap.samples);
    }
    interval_compute_start = compute_seconds;
    last_lb_step = snap.step;
    return snap.step;
  };

  /// One boundary pass along `axis`. Aggregates per-part loads, asks
  /// the strategy for a plan, and applies it (mesh + particle
  /// migration). Returns true when the bounds changed.
  const auto balance_axis = [&](int axis, std::uint32_t step,
                                double interval_compute_mean) {
    const std::size_t parts =
        static_cast<std::size_t>(axis == 0 ? cart.px() : cart.py());
    const std::size_t my_index =
        static_cast<std::size_t>(axis == 0 ? my_cx : my_cy);
    std::vector<double> loads(parts, 0.0);
    loads[my_index] = metric == lb::LoadMetric::kComputeSeconds
                          ? compute_seconds - interval_compute_start
                          : static_cast<double>(particles.size());
    loads = comm.allreduce(std::span<const double>(loads),
                           [](double a, double b) { return a + b; });

    lb::BoundsInput input;
    input.metric = metric;
    input.axis = axis;
    input.step = step;
    input.interval_steps = step - last_lb_step;
    input.bounds = axis == 0 ? decomp.x_bounds() : decomp.y_bounds();
    input.loads = std::move(loads);
    input.interval_compute_seconds = interval_compute_mean;

    const std::vector<std::int64_t> old_b = input.bounds;
    const std::vector<std::int64_t> new_b = strategy->rebalance_bounds(input);
    PICPRK_ASSERT_MSG(new_b.size() == old_b.size() && new_b.front() == old_b.front() &&
                          new_b.back() == old_b.back(),
                      "lb strategy returned malformed bounds");
    if (new_b == old_b) return false;

    const auto rank_at = [&](std::size_t p) {
      return axis == 0 ? cart.rank_of(static_cast<int>(p), my_cy)
                       : cart.rank_of(my_cx, static_cast<int>(p));
    };
    migrate_mesh_axis(comm, slab, pattern, axis, old_b, new_b, my_index, rank_at,
                      mesh_stats);
    if (axis == 0) {
      decomp.set_x_bounds(new_b);
    } else {
      decomp.set_y_bounds(new_b);
    }
    rebuild_slab();
    exchange_particles(comm, decomp, particles, tiles, exchange_buffers);
    PICPRK_DEBUG("rank " << comm.rank() << " step " << step << ": " << strategy->name()
                         << " moved axis-" << axis << " boundaries");
    return true;
  };

  // Localized recovery (docs/RESILIENCE.md): on a confirmed rank kill
  // every rank — the logical victim's thread survives in-process and is
  // promoted as its own spare — rendezvouses at the coordinator, only
  // the dead rank restores from its buddy copy and everyone replays at
  // most one step. Null coordinator = classical full-run rollback.
  ft::RecoveryCoordinator* coordinator =
      config.ft.localized() ? config.ft.coordinator : nullptr;
  std::uint32_t localized = 0, replayed = 0;
  const auto restore_local = [&](std::uint32_t failed_step) -> std::uint32_t {
    const std::uint32_t restore = coordinator->join(comm);
    auto snap = restore_snapshot(comm.rank(), comm.size(), *config.ft.store);
    PICPRK_ASSERT_MSG(snap && snap->step == restore,
                      "localized recovery: no snapshot at the agreed step");
    adopt(*snap);
    replayed += failed_step - restore;
    ++localized;
    return restore;
  };

  const std::uint32_t cadence =
      config.ft.checkpointing() ? config.resilience.checkpoint_cadence() : 0;
  std::uint32_t step = 0;
  std::uint64_t checkpoint_rounds = 0, checkpoint_bytes = 0;
  if (config.ft.resume && config.ft.store != nullptr) {
    if (auto snap = restore_snapshot(comm.rank(), comm.size(), *config.ft.store)) {
      step = adopt(*snap);
    }
  }

  util::Timer wall;
  while (step < config.steps) {
    try {
    // Snapshot the start-of-step state, then poll scripted step faults;
    // a kill at a checkpoint step therefore rolls back to that step.
    if (cadence > 0 && step % cadence == 0) {
      obs::Phase phase(obs::kPhaseCheckpoint, &checkpoint_seconds, inst.lane,
                       inst.checkpoint);
      DriverSnapshot snap;
      snap.step = step;
      snap.x_bounds = decomp.x_bounds();
      snap.y_bounds = decomp.y_bounds();
      snap.particles = pic::to_aos(particles);  // wire form
      snap.removed_sum = tracker.removed_sum();
      snap.sent = exchange_buffers.totals.sent;
      snap.bytes = exchange_buffers.totals.bytes;
      snap.lb_actions = mesh_stats.transfers;
      snap.lb_bytes = mesh_stats.bytes_sent;
      snap.samples = result.imbalance_series.size();
      checkpoint_bytes += checkpoint_exchange(comm, *config.ft.store, snap);
      ++checkpoint_rounds;
    }
    if (config.ft.injector != nullptr) {
      config.ft.injector->begin_step(comm.rank(), step, &comm.abort_flag());
    }

    tracker.apply(step, block, particles, tiles);

    {
      obs::Phase phase(obs::kPhaseCompute, &compute_seconds, inst.lane, inst.compute);
      pic::move_all_tiled(particles, tiles, grid, slab, config.init.dt);
    }
#if defined(PICPRK_EXPENSIVE_CHECKS)
    PICPRK_ASSERT_MSG(!tiles.fresh() || tiles.check(particles, grid),
                      "tile index invariant broken after move");
#endif

    {
      obs::Phase phase(obs::kPhaseExchange, &exchange_seconds, inst.lane,
                       inst.exchange);
      exchange_particles(comm, decomp, particles, tiles, exchange_buffers);
    }

    if (lb_every > 0 && step > 0 && step % lb_every == 0) {
      obs::Phase phase(obs::kPhaseLb, &lb_seconds, inst.lane, inst.lb);
      const double lb_event_start_seconds = lb_seconds;
      const std::uint64_t mesh_bytes_before = mesh_stats.bytes_sent;
      const std::uint64_t sent_before = exchange_buffers.totals.sent;

      // Cost-model strategies additionally read the measured per-rank
      // compute time of the closing interval (globally reduced so their
      // internal state stays rank-identical).
      double interval_compute_mean = 0.0;
      if (strategy->wants_feedback()) {
        const double local = compute_seconds - interval_compute_start;
        interval_compute_mean =
            comm.allreduce_value(local, [](double a, double b) { return a + b; }) /
            static_cast<double>(comm.size());
      }

      // Phase 1 (x): the paper's experiments restrict balancing to the
      // drift direction; phase 2 (y) runs when the strategy asks.
      bool moved = balance_axis(0, step, interval_compute_mean);
      if (strategy->wants_y_phase()) {
        moved = balance_axis(1, step, interval_compute_mean) || moved;
      }

      if (inst.lb_decisions != nullptr) {
        inst.lb_decisions->add();
        (moved ? inst.lb_rebalances : inst.lb_skipped)->add();
      }
      if (strategy->wants_feedback()) {
        lb::ApplyFeedback feedback;
        if (moved) {
          phase.finish();  // close the timer so the event cost is real
          const double local_cost = lb_seconds - lb_event_start_seconds;
          feedback.lb_seconds = comm.allreduce_value(
              local_cost, [](double a, double b) { return std::max(a, b); });
          feedback.moved_load = static_cast<double>(comm.allreduce_value(
              exchange_buffers.totals.sent - sent_before,
              [](std::uint64_t a, std::uint64_t b) { return a + b; }));
          feedback.moved_bytes = comm.allreduce_value(
              mesh_stats.bytes_sent - mesh_bytes_before,
              [](std::uint64_t a, std::uint64_t b) { return a + b; });
        }
        strategy->note_applied(feedback);
      }
      interval_compute_start = compute_seconds;
      last_lb_step = step;
    }
    if (inst.steps != nullptr) inst.steps->add();

    if (config.sample_every > 0 && step % config.sample_every == 0) {
      if (config.obs.active()) {
        const obs::StepSample sample = sample_step_telemetry(
            comm, static_cast<int>(step), particles.size(), compute_seconds);
        result.step_samples.push_back(sample);
        result.imbalance_series.push_back(sample.lambda);
      } else {
        result.imbalance_series.push_back(sample_imbalance(comm, particles.size()));
      }
    }
    ++step;
    } catch (const ft::RankKilled& e) {
      if (coordinator == nullptr) throw;
      coordinator->declare_dead(e.rank(), e.step());
      step = restore_local(step);
    } catch (const comm::RecvInterrupted&) {
      if (coordinator == nullptr) throw;
      step = restore_local(step);
    }
  }
  const double seconds = wall.elapsed();

  const std::vector<pic::Particle> final_particles = pic::to_aos(particles);
  const pic::VerifyResult local_verify =
      verify_particles(std::span<const pic::Particle>(final_particles), grid,
                       config.steps, config.verify_epsilon);
  finalize_result(comm, init, config.events,
                  RankTotals{.verify = local_verify,
                             .removed_id_sum = tracker.removed_sum(),
                             .particles = particles.size(),
                             .seconds = seconds,
                             .phases = PhaseBreakdown{compute_seconds, exchange_seconds,
                                                      lb_seconds, checkpoint_seconds},
                             .sent = exchange_buffers.totals.sent,
                             .bytes = exchange_buffers.totals.bytes,
                             .lb_actions = mesh_stats.transfers,
                             .lb_bytes = mesh_stats.bytes_sent},
                  result);
  if (config.ft.active()) {
    result.checkpoints = checkpoint_rounds;
    result.checkpoint_bytes = comm.allreduce_value(
        checkpoint_bytes, [](std::uint64_t a, std::uint64_t b) { return a + b; });
    result.localized_recoveries = localized;
    result.replayed_steps = comm.allreduce_value(
        replayed, [](std::uint32_t a, std::uint32_t b) { return a > b ? a : b; });
  }
  return result;
}

}  // namespace picprk::par
