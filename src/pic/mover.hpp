// The computational heart of the PIC PRK (paper §III-B): for each
// particle, sum the Coulomb forces exerted by the four charges at the
// corners of its containing cell, then advance position and velocity by
// the kinematic formulas (Eqs. 1–2) under periodic boundaries. ke/m = 1
// by specification, so acceleration equals force.
//
// The force kernel is strength-reduced twice over: the per-corner
// contribution is written q1·q2/r³ · (dx, dy) (no normalisation divide),
// and the four corner reciprocals 1/r³ are recovered from a SINGLE
// divide — 1/(d₀d₁d₂d₃) multiplied back by partial products — so a
// particle costs four sqrts and one divide where the textbook form costs
// four sqrts and twelve divides (sqrt and divide share the divider unit
// on x86, so this is the bound that matters). The four corner charges
// come from a single `corners(cx, cy)` lookup when the charge source
// supports it (one parity test for the alternating-column pattern, one
// bounds check for a slab). The AoS and SoA movers route
// through the same inlined per-particle kernel, so results are
// bit-identical across layouts within a build. The pre-optimization
// kernel is preserved in namespace `reference` for equivalence tests and
// the old-vs-new micro-benchmark (bench_hotpath).
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>

#include "pic/charge.hpp"
#include "pic/geometry.hpp"
#include "pic/particle.hpp"
#include "pic/tiling.hpp"
#include "util/annotations.hpp"

namespace picprk::pic {

struct Force {
  double fx = 0.0;
  double fy = 0.0;
};

/// Coulomb force of a charge q2 at displacement (dx, dy) from a charge q1
/// (ke = 1): magnitude q1·q2/r², directed along the joining line, repulsive
/// for like signs. Strength-reduced to the 1/r³ form: one divide and one
/// sqrt per corner.
PICPRK_HOT inline Force coulomb(double dx, double dy, double q1, double q2) {
  const double r2 = dx * dx + dy * dy;
  const double s = q1 * q2 / (r2 * std::sqrt(r2));
  return {s * dx, s * dy};
}

/// Fetches the four corner charges of cell (cx, cy), preferring the
/// charge source's fused `corners` fast path over four `at` calls.
template <typename Charges>
PICPRK_HOT inline CornerCharges corner_charges(const Charges& charges, std::int64_t cx,
                                    std::int64_t cy) {
  if constexpr (requires { charges.corners(cx, cy); }) {
    return charges.corners(cx, cy);
  } else {
    return {charges.at(cx, cy), charges.at(cx, cy + 1), charges.at(cx + 1, cy),
            charges.at(cx + 1, cy + 1)};
  }
}

/// Net force on a charge q at (rel_x, rel_y) within its cell from the
/// four corner charges (cell side h). The inner body of every mover.
///
/// The four 1/r³ reciprocals come from ONE divide: with dᵢ = rᵢ³,
/// inv = 1/(d₀₀d₀₁d₁₀d₁₁) and each 1/dᵢ is inv times the product of the
/// other three (tracked as two pair-products), trading three dependent
/// divides for a handful of pipelined multiplies. Corner order and the
/// summation order ((f00+f01)+f10)+f11 are fixed — the official PRK's
/// (cx,cy), (cx,cy+1), (cx+1,cy), (cx+1,cy+1) — so force summation is
/// deterministic across implementations.
PICPRK_HOT inline Force corner_force(double rel_x, double rel_y, double q, const CornerCharges& c,
                          double h) {
  const double dx_l = rel_x;      // x-displacement from the left corners
  const double dx_r = rel_x - h;  // ... and from the right corners
  const double dy_b = rel_y;      // y-displacement from the bottom corners
  const double dy_t = rel_y - h;  // ... and from the top corners

  const double r2_00 = dx_l * dx_l + dy_b * dy_b;
  const double r2_01 = dx_l * dx_l + dy_t * dy_t;
  const double r2_10 = dx_r * dx_r + dy_b * dy_b;
  const double r2_11 = dx_r * dx_r + dy_t * dy_t;
  const double d00 = r2_00 * std::sqrt(r2_00);  // r³
  const double d01 = r2_01 * std::sqrt(r2_01);
  const double d10 = r2_10 * std::sqrt(r2_10);
  const double d11 = r2_11 * std::sqrt(r2_11);

  const double left = d00 * d01;
  const double right = d10 * d11;
  const double inv = 1.0 / (left * right);
  const double s00 = q * c.q00 * (inv * d01 * right);
  const double s01 = q * c.q01 * (inv * d00 * right);
  const double s10 = q * c.q10 * (inv * left * d11);
  const double s11 = q * c.q11 * (inv * left * d10);

  Force f;
  f.fx = ((s00 * dx_l + s01 * dx_l) + s10 * dx_r) + s11 * dx_r;
  f.fy = ((s00 * dy_b + s01 * dy_t) + s10 * dy_b) + s11 * dy_t;
  return f;
}

/// Total force on particle `p` from the four corner charges of its cell.
/// `charges` is any charge source exposing `double at(px, py)` for global
/// mesh-point indices (AlternatingColumnCharges or ChargeSlab).
template <typename Charges>
PICPRK_HOT Force total_force(const Particle& p, const GridSpec& grid, const Charges& charges) {
  const std::int64_t cx = grid.cell_of(p.x);
  const std::int64_t cy = grid.cell_of(p.y);
  const double rel_x = p.x - static_cast<double>(cx) * grid.h;
  const double rel_y = p.y - static_cast<double>(cy) * grid.h;
  return corner_force(rel_x, rel_y, p.q, corner_charges(charges, cx, cy), grid.h);
}

/// Advances one particle by one time step dt given the force acting on it
/// (Eqs. 1–2), wrapping periodically into [0, L).
PICPRK_HOT inline void advance(Particle& p, const Force& f, const GridSpec& grid, double dt) {
  const double ax = f.fx;  // ke/m == 1 by specification
  const double ay = f.fy;
  const double length = grid.length();
  p.x = wrap(p.x + p.vx * dt + 0.5 * ax * dt * dt, length);
  p.y = wrap(p.y + p.vy * dt + 0.5 * ay * dt * dt, length);
  p.vx += ax * dt;
  p.vy += ay * dt;
}

/// The fused per-particle inner kernel on bare scalars: force + advance.
/// The AoS and SoA movers route through this one body, so the
/// layouts stay bit-identical within a build.
template <typename Charges>
PICPRK_HOT inline void move_scalars(double& x, double& y, double& vx, double& vy, double q,
                         const GridSpec& grid, const Charges& charges, double dt) {
  const std::int64_t cx = grid.cell_of(x);
  const std::int64_t cy = grid.cell_of(y);
  const double rel_x = x - static_cast<double>(cx) * grid.h;
  const double rel_y = y - static_cast<double>(cy) * grid.h;
  const Force f = corner_force(rel_x, rel_y, q, corner_charges(charges, cx, cy), grid.h);
  const double ax = f.fx;  // ke/m == 1 by specification
  const double ay = f.fy;

  const double length = grid.length();
  x = wrap(x + vx * dt + 0.5 * ax * dt * dt, length);
  y = wrap(y + vy * dt + 0.5 * ay * dt * dt, length);
  vx += ax * dt;
  vy += ay * dt;
}

/// Force + advance fused, the per-particle inner loop body.
template <typename Charges>
PICPRK_HOT void move_particle(Particle& p, const GridSpec& grid, const Charges& charges, double dt) {
  move_scalars(p.x, p.y, p.vx, p.vy, p.q, grid, charges, dt);
}

/// Moves a span of AoS wire records. Not a production hot path any
/// more — the drivers run on the SoA store (move_all_soa /
/// move_all_tiled) — but kept as the layout-equivalence oracle: it
/// routes through the same move_scalars kernel, so the SoA movers must
/// match it bit-for-bit.
template <typename Charges>
void move_all(std::span<Particle> particles, const GridSpec& grid,
              const Charges& charges, double dt) {
  for (Particle& p : particles) move_particle(p, grid, charges, dt);
}

/// Structure-of-arrays mover: the vectorized fast path. Iterations are
/// independent, so the loop carries an `omp simd` hint (honoured by
/// -fopenmp or -fopenmp-simd builds; harmless otherwise); with OpenMP
/// enabled the loop is additionally thread-parallel. The body is the
/// same move_scalars kernel as the AoS movers.
template <typename Charges>
PICPRK_HOT void move_all_soa(ParticleSoA& soa, const GridSpec& grid, const Charges& charges, double dt) {
  const auto n = static_cast<std::int64_t>(soa.size());
  double* const x = soa.x.data();
  double* const y = soa.y.data();
  double* const vx = soa.vx.data();
  double* const vy = soa.vy.data();
  const double* const q = soa.q.data();
#if defined(PICPRK_HAVE_OPENMP)
#pragma omp parallel for simd schedule(static)
#else
#pragma omp simd
#endif
  for (std::int64_t i = 0; i < n; ++i) {
    const auto s = static_cast<std::size_t>(i);
    move_scalars(x[s], y[s], vx[s], vy[s], q[s], grid, charges, dt);
  }
}

/// One tile's unwrapped advance: the autovectorized inner loop of the
/// tiled mover. The four corner charges and the cell base coordinates
/// are loop invariants of the whole call, so the body is straight-line
/// arithmetic over the position/velocity/charge columns — no cell
/// lookup, no charge gather, no branches. A standalone function because
/// the vectorizer needs the `restrict` guarantee to come from PARAMETERS
/// (on block-scope pointers GCC drops it, and ten pairwise runtime alias
/// checks exceed the vectorizer's versioning budget). The periodic wrap
/// deliberately stays out: splitting it into the caller's scalar pass
/// changes nothing bit-wise (cx/cy come from the pre-move position and
/// the velocity update is wrap-independent).
PICPRK_HOT inline void move_tile(double* __restrict x, double* __restrict y,
                                 double* __restrict vx, double* __restrict vy,
                                 const double* __restrict q, std::size_t n,
                                 double base_x, double base_y, CornerCharges c, double h,
                                 double dt) {
  for (std::size_t i = 0; i < n; ++i) {
    const Force f = corner_force(x[i] - base_x, y[i] - base_y, q[i], c, h);
    x[i] = x[i] + vx[i] * dt + 0.5 * f.fx * dt * dt;
    y[i] = y[i] + vy[i] * dt + 0.5 * f.fy * dt * dt;
    vx[i] += f.fx * dt;
    vy[i] += f.fy * dt;
  }
}

/// Tail share of the store above which move_all_tiled re-sorts before
/// moving: immigrants/injected rows accumulate in the index tail (moved
/// by the scalar kernel) until re-tiling pays for itself. See
/// docs/PERFORMANCE.md for the cost model behind the cadence.
inline constexpr double kRetileTailFraction = 0.25;

/// Tiled SoA mover: the production hot path.
///
/// With the store grouped by cell (TileIndex), each tile runs the
/// vectorized move_tile kernel — GCC vectorizes it at the default
/// target ISA (the CI vectorization-report job and
/// tools/check_vectorization.sh pin this) — followed by a scalar
/// periodic-wrap pass. Results are bit-identical to
/// move_all/move_all_soa.
///
/// A dirty index is rebuilt first; rows in the index's untiled tail
/// (immigrants, injected particles, out-of-region residents) go through
/// the fused scalar kernel. Each tile is relabelled with its new cell
/// right after its wrap pass (TileIndex::relabel), so the common
/// uniform-drift case never re-sorts and a scattered tile leaves the
/// index dirty for the next call.
template <typename Charges>
PICPRK_HOT void move_all_tiled(ParticleSoA& soa, TileIndex& tiles, const GridSpec& grid,
                               const Charges& charges, double dt) {
  if (!tiles.fresh() || tiles.tail_fraction(soa) > kRetileTailFraction) {
    tiles.rebuild(soa, grid);
  }
  const double h = grid.h;
  const double length = grid.length();
  double* const x = soa.x.data();
  double* const y = soa.y.data();
  double* const vx = soa.vx.data();
  double* const vy = soa.vy.data();
  const double* const q = soa.q.data();

  const std::span<const TileIndex::Tile> tile_list = tiles.tiles();
  for (std::size_t t = 0; t < tile_list.size(); ++t) {
    const TileIndex::Tile tile = tile_list[t];
    const std::size_t begin = tile.begin;
    const std::size_t end = tile.end;
    const CornerCharges c = corner_charges(charges, tile.cx, tile.cy);
    const double base_x = static_cast<double>(tile.cx) * h;
    const double base_y = static_cast<double>(tile.cy) * h;
    move_tile(x + begin, y + begin, vx + begin, vy + begin, q + begin, end - begin,
              base_x, base_y, c, h, dt);
    // Periodic wrap: branchy, so a separate scalar pass. The tile's new
    // cell is read while its rows are still in cache.
    for (std::size_t i = begin; i < end; ++i) {
      x[i] = wrap(x[i], length);
      y[i] = wrap(y[i], length);
    }
    if (tiles.fresh()) tiles.relabel(t, soa, grid);
  }

  const std::size_t n = soa.size();
  for (std::size_t i = tiles.tail_begin(); i < n; ++i) {
    move_scalars(x[i], y[i], vx[i], vy[i], q[i], grid, charges, dt);
  }
}

// ------------------------------------------------------------ reference
// The pre-optimization hot path, verbatim: four `at` charge lookups, the
// f/r² · (dx/r, dy/r) force form, divide-based cell lookup and
// fmod-based periodic wrap. Kept as the ground truth for the
// ULP-equivalence tests and as the "old" side of bench_hotpath. Its
// results are bit-identical to the optimised kernels' geometry (the fast
// wrap/cell_of agree exactly with these forms — see geometry.hpp), so
// any divergence the equivalence test sees is from the force kernel.
namespace reference {

inline Force coulomb(double dx, double dy, double q1, double q2) {
  const double r2 = dx * dx + dy * dy;
  const double r = std::sqrt(r2);
  const double f = q1 * q2 / r2;
  return {f * dx / r, f * dy / r};
}

/// The old cell lookup: a divide per coordinate.
inline std::int64_t cell_of(double v, const GridSpec& grid) {
  auto c = static_cast<std::int64_t>(std::floor(v / grid.h));
  if (c >= grid.cells) c = grid.cells - 1;
  if (c < 0) c = 0;
  return c;
}

template <typename Charges>
Force total_force(const Particle& p, const GridSpec& grid, const Charges& charges) {
  const std::int64_t cx = reference::cell_of(p.x, grid);
  const std::int64_t cy = reference::cell_of(p.y, grid);
  const double rel_x = p.x - static_cast<double>(cx) * grid.h;
  const double rel_y = p.y - static_cast<double>(cy) * grid.h;

  Force total;
  const struct {
    double dx, dy;
    std::int64_t px, py;
  } corners[4] = {
      {rel_x, rel_y, cx, cy},
      {rel_x, rel_y - grid.h, cx, cy + 1},
      {rel_x - grid.h, rel_y, cx + 1, cy},
      {rel_x - grid.h, rel_y - grid.h, cx + 1, cy + 1},
  };
  for (const auto& c : corners) {
    const Force f = reference::coulomb(c.dx, c.dy, p.q, charges.at(c.px, c.py));
    total.fx += f.fx;
    total.fy += f.fy;
  }
  return total;
}

/// The old advance: full fmod wrap on every coordinate.
inline void advance(Particle& p, const Force& f, const GridSpec& grid, double dt) {
  const double ax = f.fx;
  const double ay = f.fy;
  const double length = grid.length();
  p.x = wrap_fmod(p.x + p.vx * dt + 0.5 * ax * dt * dt, length);
  p.y = wrap_fmod(p.y + p.vy * dt + 0.5 * ay * dt * dt, length);
  p.vx += ax * dt;
  p.vy += ay * dt;
}

template <typename Charges>
void move_particle(Particle& p, const GridSpec& grid, const Charges& charges, double dt) {
  reference::advance(p, reference::total_force(p, grid, charges), grid, dt);
}

template <typename Charges>
void move_all(std::span<Particle> particles, const GridSpec& grid, const Charges& charges,
              double dt) {
  for (Particle& p : particles) reference::move_particle(p, grid, charges, dt);
}

}  // namespace reference

}  // namespace picprk::pic
