#include "pic/simulation.hpp"

#include "util/log.hpp"
#include "util/timer.hpp"

namespace picprk::pic {

void serial_step(std::vector<Particle>& particles, const GridSpec& grid,
                 const AlternatingColumnCharges& charges, double dt) {
  move_all(std::span<Particle>(particles), grid, charges, dt);
}

SimulationResult run_serial(const SimulationConfig& config) {
  const Initializer init(config.init);
  const GridSpec& grid = config.init.grid;
  const AlternatingColumnCharges charges(config.init.mesh_q);
  const double dt = config.init.dt;

  std::vector<Particle> particles = init.create_all();
  std::uint64_t expected_sum = expected_checksum(init.total());
  PICPRK_ASSERT_MSG(particles.size() == init.total(),
                    "initializer count mismatch");

  SimulationResult result;
  util::Timer timer;

  const bool has_events = !config.events.empty();
  for (std::uint32_t step = 0; step < config.steps; ++step) {
    if (has_events && config.events.scheduled_at(step)) {
      // Track the expected checksum through population changes: removals
      // subtract the ids they take out, injections add a known id range.
      for (std::size_t e = 0; e < config.events.removals().size(); ++e) {
        if (config.events.removals()[e].step != step) continue;
        const CellRegion& region = config.events.removals()[e].region;
        for (const Particle& p : particles) {
          const std::int64_t cx = grid.cell_of(p.x);
          const std::int64_t cy = grid.cell_of(p.y);
          if (region.contains_cell(cx, cy) && config.events.removes(init, e, p.id)) {
            expected_sum -= p.id;
          }
        }
      }
      for (std::size_t e = 0; e < config.events.injections().size(); ++e) {
        if (config.events.injections()[e].step != step) continue;
        const std::uint64_t first = config.events.injection_first_id(init, e);
        const std::uint64_t count = config.events.injection_total(init, e);
        // Sum of the contiguous id range [first, first+count).
        expected_sum += count * first + count * (count - 1) / 2;
      }
      config.events.apply_step(init, step, 0, grid.cells, 0, grid.cells, particles);
    }
    serial_step(particles, grid, charges, dt);
  }

  result.seconds = timer.elapsed();
  result.final_particles = particles.size();
  result.expected_id_checksum = expected_sum;
  result.verification = verify_particles(std::span<const Particle>(particles), grid,
                                         config.steps, config.verify_epsilon);
  PICPRK_DEBUG("serial run: n=" << particles.size() << " steps=" << config.steps
                                << " max_err=" << result.verification.max_position_error
                                << " ok=" << result.ok());
  return result;
}

}  // namespace picprk::pic
