#include "arith.hpp"

#include <algorithm>
#include <stdexcept>

#include "pic/verify.hpp"

namespace perfbench {

namespace pic = picprk::pic;

Census census(const pic::InitParams& params, const pic::EventSchedule& events,
              std::uint32_t steps) {
  const pic::Initializer init(params);
  Census c;
  c.initial_particles = init.total();
  if (events.empty()) {
    c.final_particles = init.total();
    c.particle_steps = init.total() * steps;
    c.final_id_sum = pic::expected_checksum(init.total());
    return c;
  }
  const pic::GridSpec& grid = params.grid;
  std::vector<pic::Particle> live = init.create_all();
  for (std::uint32_t s = 0; s < steps; ++s) {
    for (std::size_t e = 0; e < events.removals().size(); ++e) {
      const pic::RemovalEvent& ev = events.removals()[e];
      if (ev.step != s) continue;
      std::erase_if(live, [&](const pic::Particle& p) {
        const pic::ExpectedPosition at = pic::expected_position(p, grid, s);
        return ev.region.contains_cell(grid.cell_of(at.x), grid.cell_of(at.y)) &&
               events.removes(init, e, p.id);
      });
    }
    for (std::size_t e = 0; e < events.injections().size(); ++e) {
      if (events.injections()[e].step != s) continue;
      events.emplace_injection_block(init, e, 0, grid.cells, 0, grid.cells, live);
    }
    c.particle_steps += live.size();
  }
  c.final_particles = live.size();
  for (const pic::Particle& p : live) c.final_id_sum += p.id;
  return c;
}

double setup_seconds(std::span<const RunTiming> runs, double extra_seconds) {
  double total = extra_seconds;
  for (const RunTiming& r : runs) total += r.wall_seconds - r.stepping_seconds;
  return total;
}

double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median of no values");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace perfbench
