#include "par/driver_common.hpp"

#include <algorithm>
#include <functional>

#include "util/assert.hpp"

namespace picprk::par {

std::uint64_t expected_id_checksum(const pic::Initializer& init,
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

EventTracker::EventTracker(const pic::Initializer& init, const pic::EventSchedule& events)
    : init_(init), events_(events) {}

void EventTracker::apply(std::uint32_t step, const pic::CellRegion& block,
                         std::vector<pic::Particle>& particles) {
  const pic::GridSpec& grid = init_.params().grid;
  // Record the ids the removal events will take out of this rank's set.
  for (std::size_t e = 0; e < events_.removals().size(); ++e) {
    if (events_.removals()[e].step != step) continue;
    const pic::CellRegion& region = events_.removals()[e].region;
    for (const pic::Particle& p : particles) {
      const auto cx = grid.cell_of(p.x);
      const auto cy = grid.cell_of(p.y);
      if (region.contains_cell(cx, cy) && events_.removes(init_, e, p.id)) {
        local_removed_sum_ += p.id;
      }
    }
  }
  events_.apply_step(init_, step, block.x0, block.x1, block.y0, block.y1, particles);
}

void EventTracker::apply(std::uint32_t step, const pic::CellRegion& block,
                         pic::ParticleSoA& particles, pic::TileIndex& tiles) {
  if (events_.empty() || !events_.scheduled_at(step)) return;
  std::vector<pic::Particle> staging = pic::to_aos(particles);
  apply(step, block, staging);
  particles.assign(staging);
  tiles.mark_dirty();
}

pic::VerifyResult merge_verification(comm::Comm& comm, const pic::VerifyResult& local) {
  // Pack into a fixed-size record so one allreduce suffices.
  struct Packed {
    std::uint64_t checked, failures, checksum, ok;
    double max_err;
  };
  const Packed mine{local.checked, local.position_failures, local.id_checksum,
                    local.positions_ok ? 1ull : 0ull, local.max_position_error};
  const Packed merged = comm.allreduce_value<Packed>(mine, [](Packed a, Packed b) {
    return Packed{a.checked + b.checked, a.failures + b.failures,
                  a.checksum + b.checksum, a.ok & b.ok, std::max(a.max_err, b.max_err)};
  });
  pic::VerifyResult out;
  out.checked = merged.checked;
  out.position_failures = merged.failures;
  out.id_checksum = merged.checksum;
  out.positions_ok = merged.ok != 0;
  out.max_position_error = merged.max_err;
  return out;
}

double sample_imbalance(comm::Comm& comm, std::uint64_t local_count) {
  struct Pair {
    std::uint64_t max, sum;
  };
  const Pair mine{local_count, local_count};
  const Pair merged = comm.allreduce_value<Pair>(mine, [](Pair a, Pair b) {
    return Pair{std::max(a.max, b.max), a.sum + b.sum};
  });
  if (merged.sum == 0) return 1.0;
  const double mean =
      static_cast<double>(merged.sum) / static_cast<double>(comm.size());
  return static_cast<double>(merged.max) / mean;
}

obs::StepSample sample_step_telemetry(comm::Comm& comm, int step,
                                      std::uint64_t local_count,
                                      double local_compute_seconds) {
  struct Loads {
    std::uint64_t count_max, count_sum;
    double seconds_max, seconds_sum;
  };
  const Loads mine{local_count, local_count, local_compute_seconds,
                   local_compute_seconds};
  const Loads merged = comm.allreduce_value<Loads>(mine, [](Loads a, Loads b) {
    return Loads{std::max(a.count_max, b.count_max), a.count_sum + b.count_sum,
                 std::max(a.seconds_max, b.seconds_max),
                 a.seconds_sum + b.seconds_sum};
  });
  obs::StepSample s;
  s.step = step;
  const auto ranks = static_cast<double>(comm.size());
  s.max_load = static_cast<double>(merged.count_max);
  s.mean_load = static_cast<double>(merged.count_sum) / ranks;
  s.lambda = s.mean_load > 0.0 ? s.max_load / s.mean_load : 1.0;
  const double mean_seconds = merged.seconds_sum / ranks;
  s.lambda_compute = mean_seconds > 0.0 ? merged.seconds_max / mean_seconds : 1.0;
  return s;
}

void finalize_result(comm::Comm& comm, const pic::Initializer& init,
                     const pic::EventSchedule& events, const RankTotals& local,
                     DriverResult& result) {
  result.verification = merge_verification(comm, local.verify);
  result.expected_id_checksum = expected_id_checksum(
      init, events, comm.allreduce_value(local.removed_id_sum, std::plus<>{}));
  result.ok = result.verification.ok(result.expected_id_checksum);

  struct Scalars {
    std::uint64_t total_particles, max_particles, sent, bytes, lb_actions, lb_bytes;
    double seconds, compute, exchange, lb, checkpoint;
  };
  const Scalars mine{local.particles,      local.particles,  local.sent,
                     local.bytes,          local.lb_actions, local.lb_bytes,
                     local.seconds,        local.phases.compute,
                     local.phases.exchange, local.phases.lb,
                     local.phases.checkpoint};
  const Scalars merged = comm.allreduce_value<Scalars>(mine, [](Scalars a, Scalars b) {
    return Scalars{a.total_particles + b.total_particles,
                   std::max(a.max_particles, b.max_particles),
                   a.sent + b.sent,
                   a.bytes + b.bytes,
                   a.lb_actions + b.lb_actions,
                   a.lb_bytes + b.lb_bytes,
                   std::max(a.seconds, b.seconds),
                   std::max(a.compute, b.compute),
                   std::max(a.exchange, b.exchange),
                   std::max(a.lb, b.lb),
                   std::max(a.checkpoint, b.checkpoint)};
  });
  result.final_particles = merged.total_particles;
  result.max_particles_per_rank = merged.max_particles;
  result.ideal_particles_per_rank =
      static_cast<double>(merged.total_particles) / static_cast<double>(comm.size());
  result.seconds = merged.seconds;
  result.phases =
      PhaseBreakdown{merged.compute, merged.exchange, merged.lb, merged.checkpoint};
  result.particles_exchanged = merged.sent;
  result.exchange_bytes = merged.bytes;
  result.lb_actions = merged.lb_actions;
  result.lb_bytes = merged.lb_bytes;
}

}  // namespace picprk::par
