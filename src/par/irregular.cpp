#include "par/irregular.hpp"

#include <algorithm>

#include "par/decomposition.hpp"
#include "par/exchange.hpp"
#include "pic/charge.hpp"
#include "pic/mover.hpp"
#include "util/assert.hpp"
#include "util/timer.hpp"

namespace picprk::par {

CellOwnerMap::CellOwnerMap(const pic::GridSpec& grid, const comm::Cart2D& cart)
    : cells_(grid.cells), ranks_(cart.size()) {
  map_.resize(static_cast<std::size_t>(cells_ * cells_));
  const Decomposition2D decomp(grid, cart);
  for (std::int64_t cy = 0; cy < cells_; ++cy) {
    for (std::int64_t cx = 0; cx < cells_; ++cx) {
      map_[index(cx, cy)] = decomp.owner_of_cell(cx, cy);
    }
  }
}

std::size_t CellOwnerMap::index(std::int64_t cx, std::int64_t cy) const {
  const std::int64_t x = pic::wrap_index(cx, cells_);
  const std::int64_t y = pic::wrap_index(cy, cells_);
  return static_cast<std::size_t>(y * cells_ + x);
}

std::int64_t CellOwnerMap::count_owned(int rank) const {
  std::int64_t n = 0;
  for (int v : map_) n += (v == rank);
  return n;
}

std::int64_t CellOwnerMap::total_perimeter() const {
  std::int64_t edges = 0;
  for (std::int64_t cy = 0; cy < cells_; ++cy) {
    for (std::int64_t cx = 0; cx < cells_; ++cx) {
      const int me = map_[index(cx, cy)];
      edges += (me != map_[index(cx + 1, cy)]);
      edges += (me != map_[index(cx, cy + 1)]);
    }
  }
  return edges;
}

std::vector<std::pair<std::int64_t, std::int64_t>> CellOwnerMap::border_cells(
    int rank) const {
  std::vector<std::pair<std::int64_t, std::int64_t>> out;
  for (std::int64_t cy = 0; cy < cells_; ++cy) {
    for (std::int64_t cx = 0; cx < cells_; ++cx) {
      if (map_[index(cx, cy)] != rank) continue;
      if (map_[index(cx - 1, cy)] != rank || map_[index(cx + 1, cy)] != rank ||
          map_[index(cx, cy - 1)] != rank || map_[index(cx, cy + 1)] != rank) {
        out.emplace_back(cx, cy);
      }
    }
  }
  return out;
}

std::int64_t irregular_lb_pass(CellOwnerMap& map, const std::vector<double>& rank_loads,
                               const IrregularParams& params) {
  PICPRK_EXPECTS(rank_loads.size() == static_cast<std::size_t>(map.ranks()));
  double total = 0;
  for (double l : rank_loads) total += l;
  const double avg = total / static_cast<double>(map.ranks());
  const double tau = params.threshold * avg;

  // Estimated particles per cell of each donor, for load accounting
  // during the pass.
  std::vector<double> load(rank_loads);
  std::vector<double> per_cell(static_cast<std::size_t>(map.ranks()), 0.0);
  for (int r = 0; r < map.ranks(); ++r) {
    const std::int64_t owned = map.count_owned(r);
    per_cell[static_cast<std::size_t>(r)] =
        owned > 0 ? load[static_cast<std::size_t>(r)] / static_cast<double>(owned) : 0.0;
  }

  // Deterministic sweep: ranks in order donate border cells to the
  // lightest 8-neighbor owner, up to the per-neighbor quota.
  std::int64_t moved = 0;
  for (int r = 0; r < map.ranks(); ++r) {
    std::vector<std::int64_t> donated(static_cast<std::size_t>(map.ranks()), 0);
    const auto border = map.border_cells(r);
    for (const auto& [cx, cy] : border) {
      if (map.owner(cx, cy) != r) continue;  // already given away this pass
      // Lightest adjacent owner over the 8-neighborhood.
      int best = -1;
      for (std::int64_t dy = -1; dy <= 1; ++dy) {
        for (std::int64_t dx = -1; dx <= 1; ++dx) {
          const int nb = map.owner(cx + dx, cy + dy);
          if (nb == r) continue;
          if (best < 0 ||
              load[static_cast<std::size_t>(nb)] < load[static_cast<std::size_t>(best)]) {
            best = nb;
          }
        }
      }
      if (best < 0) continue;
      // Trade only when the difference exceeds the threshold (§IV-B).
      if (load[static_cast<std::size_t>(r)] - load[static_cast<std::size_t>(best)] <= tau)
        continue;
      if (donated[static_cast<std::size_t>(best)] >= params.quota) continue;
      map.set_owner(cx, cy, best);
      ++donated[static_cast<std::size_t>(best)];
      ++moved;
      const double delta = per_cell[static_cast<std::size_t>(r)];
      load[static_cast<std::size_t>(r)] -= delta;
      load[static_cast<std::size_t>(best)] += delta;
    }
  }
  return moved;
}

IrregularResult run_irregular(comm::Comm& comm, const DriverConfig& config,
                              const IrregularParams& params) {
  PICPRK_EXPECTS(params.frequency >= 1);
  const comm::Cart2D cart(comm.size());
  const pic::GridSpec& grid = config.init.grid;
  CellOwnerMap map(grid, cart);

  const Decomposition2D initial_decomp(grid, cart);
  const pic::CellRegion block = initial_decomp.block_of(comm.rank());
  const pic::Initializer init(config.init);
  std::vector<pic::Particle> particles =
      init.create_block(block.x0, block.x1, block.y0, block.y1);
  // Irregular subdomains have no rectangular slab; the mover reads the
  // analytic charge pattern directly (the specification allows any
  // charge source — §III-C obliviousness).
  const pic::AlternatingColumnCharges charges(config.init.mesh_q);

  EventTracker tracker(init, config.events);
  const auto owner_of = [&](double x, double y) {
    return map.owner(grid.cell_of(x), grid.cell_of(y));
  };

  IrregularResult result;
  result.initial_perimeter = map.total_perimeter();

  util::PhaseTimer compute_timer, exchange_timer, lb_timer;
  std::uint64_t sent = 0, bytes = 0, lb_actions = 0;
  ExchangeBuffers exchange_buffers;  // steady-state exchange allocates nothing
  util::Timer wall;

  // Events need the rank's owned region; with irregular ownership we
  // apply events per owned particle (removals) and route injected
  // particles by the map: inject on the canonical block owner, then let
  // the exchange redistribute. For simplicity events apply on the rank
  // owning the *initial* block of the event cells.
  for (std::uint32_t step = 0; step < config.steps; ++step) {
    if (!config.events.empty()) tracker.apply(step, block, particles);

    compute_timer.start();
    pic::move_all(std::span<pic::Particle>(particles), grid, charges, config.init.dt);
    compute_timer.stop();

    exchange_timer.start();
    const ExchangeStats stats =
        exchange_particles_by(comm, owner_of, particles, exchange_buffers);
    exchange_timer.stop();
    sent += stats.sent;
    bytes += stats.bytes;

    if (step > 0 && step % params.frequency == 0) {
      lb_timer.start();
      // Collective load snapshot, then the identical deterministic pass
      // on every rank's replica of the map.
      std::vector<double> loads(static_cast<std::size_t>(comm.size()), 0.0);
      loads[static_cast<std::size_t>(comm.rank())] = static_cast<double>(particles.size());
      loads = comm.allreduce(std::span<const double>(loads),
                             [](double a, double b) { return a + b; });
      const std::int64_t moved = irregular_lb_pass(map, loads, params);
      if (moved > 0) {
        lb_actions += static_cast<std::uint64_t>(moved);
        const ExchangeStats lb_stats =
            exchange_particles_by(comm, owner_of, particles, exchange_buffers);
        sent += lb_stats.sent;
        bytes += lb_stats.bytes;
      }
      lb_timer.stop();
    }

    if (config.sample_every > 0 && step % config.sample_every == 0) {
      result.driver.imbalance_series.push_back(sample_imbalance(comm, particles.size()));
    }
  }
  const double seconds = wall.elapsed();
  result.final_perimeter = map.total_perimeter();

  const pic::VerifyResult local_verify =
      verify_particles(std::span<const pic::Particle>(particles), grid, config.steps,
                       config.verify_epsilon);
  finalize_result(comm, init, config.events,
                  RankTotals{.verify = local_verify,
                             .removed_id_sum = tracker.removed_sum(),
                             .particles = particles.size(),
                             .seconds = seconds,
                             .phases = PhaseBreakdown{compute_timer.total(),
                                                      exchange_timer.total(),
                                                      lb_timer.total()},
                             .sent = sent,
                             .bytes = bytes,
                             .lb_actions = lb_actions,
                             .lb_bytes = lb_actions * sizeof(double)},
                  result.driver);
  return result;
}

}  // namespace picprk::par
