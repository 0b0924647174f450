#include "pic/diagnostics.hpp"

#include <cmath>
#include <numbers>

#include "util/assert.hpp"

namespace picprk::pic {

// picprk-lint: suppress(reach: tested API no engine calls yet; a deletion candidate)
std::vector<std::uint64_t> column_histogram(std::span<const Particle> particles,
                                            const GridSpec& grid) {
  std::vector<std::uint64_t> counts(static_cast<std::size_t>(grid.cells), 0);
  for (const Particle& p : particles) {
    counts[static_cast<std::size_t>(grid.cell_of(p.x))]++;
  }
  return counts;
}

// picprk-lint: suppress(reach: tested API no engine calls yet; a deletion candidate)
std::vector<std::uint64_t> row_histogram(std::span<const Particle> particles,
                                         const GridSpec& grid) {
  std::vector<std::uint64_t> counts(static_cast<std::size_t>(grid.cells), 0);
  for (const Particle& p : particles) {
    counts[static_cast<std::size_t>(grid.cell_of(p.y))]++;
  }
  return counts;
}

// picprk-lint: suppress(reach: tested API no engine calls yet; a deletion candidate)
CloudSummary summarize_cloud(std::span<const Particle> particles, const GridSpec& grid) {
  CloudSummary s;
  s.count = particles.size();
  if (particles.empty()) return s;
  const double length = grid.length();
  const double to_angle = 2.0 * std::numbers::pi / length;
  double cx = 0, sx = 0, cy = 0, sy = 0;
  for (const Particle& p : particles) {
    cx += std::cos(p.x * to_angle);
    sx += std::sin(p.x * to_angle);
    cy += std::cos(p.y * to_angle);
    sy += std::sin(p.y * to_angle);
  }
  const double n = static_cast<double>(particles.size());
  cx /= n;
  sx /= n;
  cy /= n;
  sy /= n;
  s.concentration_x = std::sqrt(cx * cx + sx * sx);
  s.concentration_y = std::sqrt(cy * cy + sy * sy);
  s.com_x = wrap(std::atan2(sx, cx) / to_angle, length);
  s.com_y = wrap(std::atan2(sy, cy) / to_angle, length);
  return s;
}

// picprk-lint: suppress(reach: tested API no engine calls yet; a deletion candidate)
double periodic_displacement(double before, double after, double length) {
  double d = std::fmod(after - before, length);
  if (d > length / 2.0) d -= length;
  if (d < -length / 2.0) d += length;
  return d;
}

}  // namespace picprk::pic
