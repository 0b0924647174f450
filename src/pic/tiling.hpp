// Cell tiling of the SoA particle store: groups the rows of a
// ParticleSoA into contiguous runs ("tiles") of particles sharing a grid
// cell, so the mover and the charge gather/deposit can hoist the four
// corner values of a cell out of the inner loop — a per-tile broadcast
// instead of a per-particle gather — leaving a straight-line loop body
// the compiler vectorizes.
//
// A full re-sort (counting sort over the cells of a region, permuting
// all twelve columns) costs more than one tiled move at realistic
// populations, so the index is NOT rebuilt every step. Instead:
//
//  * rebuild()    — counting-sort the store by cell; rows whose cell
//                   falls outside the region land in an untiled tail.
//  * relabel()    — after a move, each tile's particles have usually
//                   drifted TOGETHER into one new cell (the PRK's motion
//                   is a uniform hop of (2k+1, m) cells for particles
//                   sharing (k, m, dir) — see verify.hpp Eqs. 5–6), so
//                   the grouping survives. The tiled mover relabels each
//                   tile right after moving it, while its rows are still
//                   in cache, and marks the index dirty only when a tile
//                   really scattered. revalidate_after_move() runs the
//                   same check over every tile, for callers that moved
//                   the store some other way.
//  * remove()     — after a move, ownership is a per-tile fact, so the
//                   particle exchange and the VP routing hand over whole
//                   emigrant tiles plus single emigrant tail rows. The
//                   holes emigrant tiles leave are filled with keeper
//                   rows taken from the end of the tiled region (each
//                   filled piece becomes a tile of its donor's cell),
//                   and the tail compacts stably behind the tiles: the
//                   rows moved are bounded by the emigrant rows plus the
//                   tail, not by the store. Keepers therefore do NOT keep
//                   their relative order across tiles. Immigrants append
//                   to the tail.
//
// Policy (when to rebuild vs. ride the tail) lives with the caller; the
// mover rebuilds a dirty index and flat-moves the tail, so correctness
// never depends on the cadence. docs/PERFORMANCE.md discusses the cost
// model.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "pic/geometry.hpp"
#include "pic/particle.hpp"
#include "util/assert.hpp"

namespace picprk::pic {

/// Rows [begin, end) of a store that leave it for `dst` (a rank or a VP
/// id): the unit the post-move split hands to TileIndex::remove.
struct RowRun {
  std::size_t begin = 0;
  std::size_t end = 0;
  int dst = 0;
};

class TileIndex {
 public:
  /// One tile: rows [begin, end) of the store, all in cell (cx, cy).
  struct Tile {
    std::int64_t cx = 0;
    std::int64_t cy = 0;
    std::size_t begin = 0;
    std::size_t end = 0;
  };

  TileIndex() = default;
  explicit TileIndex(const CellRegion& region) : region_(region) {}

  const CellRegion& region() const { return region_; }

  /// Re-targets the index (e.g. after a load-balance boundary move).
  void reset_region(const CellRegion& region) {
    region_ = region;
    dirty_ = true;
  }

  /// False once any operation broke the tile ⇄ cell correspondence
  /// (scatter detected, swap_remove, restore...). A dirty index must be
  /// rebuilt before the tiles are trusted again.
  bool fresh() const { return !dirty_; }
  void mark_dirty() { dirty_ = true; }

  std::span<const Tile> tiles() const { return tiles_; }

  /// Rows [tail_begin(), soa.size()) are not covered by any tile:
  /// out-of-region residents and everything appended since the last
  /// rebuild (immigrants, injected particles). Callers move them with
  /// the flat kernel.
  std::size_t tail_begin() const { return tiled_end_; }

  /// Tail size as a fraction of the store; the drivers' rebuild trigger.
  double tail_fraction(const ParticleSoA& soa) const {
    const std::size_t n = soa.size();
    if (n == 0) return 0.0;
    return static_cast<double>(n - tiled_end_) / static_cast<double>(n);
  }

  /// Counting-sorts the store by containing cell (region cells in
  /// row-major order, then the out-of-region tail) and records one tile
  /// per occupied cell. All twelve columns are permuted; scratch is
  /// retained across calls, so steady-state rebuilds allocate nothing.
  void rebuild(ParticleSoA& soa, const GridSpec& grid) {
    const std::size_t n = soa.size();
    const std::int64_t w = region_.width();
    const auto area = static_cast<std::size_t>(region_.area());
    tiles_.clear();
    // Degenerate region/population: a bucket array much larger than the
    // store would cost more than tiling saves — leave everything in the
    // tail (the flat kernel handles it; still a valid, fresh index).
    if (n == 0 || area > kMaxBuckets || (area > 8 * n && area > 4096)) {
      tiled_end_ = 0;
      dirty_ = false;
      return;
    }

    // Pass 1: bucket key per row (region cell index, or `area` = tail).
    key_.resize(n);
    counts_.assign(area + 1, 0);
    for (std::size_t i = 0; i < n; ++i) {
      const std::int64_t cx = grid.cell_of(soa.x[i]);
      const std::int64_t cy = grid.cell_of(soa.y[i]);
      const std::size_t key =
          region_.contains_cell(cx, cy)
              ? static_cast<std::size_t>((cy - region_.y0) * w + (cx - region_.x0))
              : area;
      key_[i] = key;
      ++counts_[key];
    }

    // Pass 2: bucket start offsets, then the destination of every row.
    starts_.resize(area + 2);
    std::size_t offset = 0;
    for (std::size_t b = 0; b <= area; ++b) {
      starts_[b] = offset;
      offset += counts_[b];
    }
    starts_[area + 1] = offset;
    // Reuse counts_ as the per-bucket write cursor; walking rows in
    // order keeps the sort stable within a bucket.
    for (std::size_t b = 0; b <= area; ++b) counts_[b] = starts_[b];
    dest_.resize(n);
    for (std::size_t i = 0; i < n; ++i) dest_[i] = counts_[key_[i]]++;

    // Pass 3: permute every column through reusable scratch.
#define PICPRK_FIELD(type, name, init) permute(soa.name, scratch(soa.name));
    PICPRK_PARTICLE_FIELDS(PICPRK_FIELD)
#undef PICPRK_FIELD

    // Pass 4: one tile per occupied region cell.
    for (std::size_t b = 0; b < area; ++b) {
      if (starts_[b] == starts_[b + 1]) continue;
      Tile t;
      t.cx = region_.x0 + static_cast<std::int64_t>(b) % w;
      t.cy = region_.y0 + static_cast<std::int64_t>(b) / w;
      t.begin = starts_[b];
      t.end = starts_[b + 1];
      tiles_.push_back(t);
    }
    tiled_end_ = starts_[area];
    dirty_ = false;
  }

  /// After tile `t` moved: relabels it from its rows' new cells. Returns
  /// false — and marks the index dirty — if the rows now span more than
  /// one cell (mixed per-particle (k, m, dir) populations do this). Two
  /// cell lookups per row, over rows the mover has just touched.
  bool relabel(std::size_t t, const ParticleSoA& soa, const GridSpec& grid) {
    Tile& tile = tiles_[t];
    const std::int64_t cx = grid.cell_of(soa.x[tile.begin]);
    const std::int64_t cy = grid.cell_of(soa.y[tile.begin]);
    for (std::size_t i = tile.begin + 1; i < tile.end; ++i) {
      if (grid.cell_of(soa.x[i]) != cx || grid.cell_of(soa.y[i]) != cy) {
        dirty_ = true;
        return false;
      }
    }
    tile.cx = cx;
    tile.cy = cy;
    return true;
  }

  /// relabel() over every tile, for a store moved by something other
  /// than the tiled mover (which relabels as it goes). Returns false,
  /// with the index dirty, at the first scattered tile.
  bool revalidate_after_move(const ParticleSoA& soa, const GridSpec& grid) {
    if (dirty_) return false;
    for (std::size_t t = 0; t < tiles_.size(); ++t) {
      if (!relabel(t, soa, grid)) return false;
    }
    return true;
  }

  /// Removes the emigrant rows listed in `runs` and returns the number
  /// of keeper rows it moved (at most the emigrant rows plus the tail).
  /// `runs` are disjoint and in store order; below tail_begin() each run
  /// is exactly one whole tile, at or above it any rows. A dirty index
  /// counts as all tail: the whole store compacts stably and the index
  /// stays dirty.
  ///
  /// Holes left by emigrant tiles inside the new tiled region
  /// [0, tail_begin() − emigrant tile rows) are filled, in order, with
  /// the keeper rows above that bound; each filled piece becomes a tile
  /// labelled with its donor's cell (merged with an adjacent tile of the
  /// same cell). The tail then compacts stably behind the tiles.
  std::size_t remove(ParticleSoA& soa, std::span<const RowRun> runs) {
    const std::size_t n = soa.size();
    const std::size_t tiled_end = dirty_ ? 0 : tiled_end_;
    std::size_t moved = 0;

    // Which tiles leave, and how many rows they take with them.
    std::size_t r = 0;
    std::size_t leaving_rows = 0;
    leaving_.assign(dirty_ ? 0 : tiles_.size(), 0);
    for (std::size_t t = 0; t < leaving_.size() && r < runs.size(); ++t) {
      if (runs[r].begin != tiles_[t].begin) continue;
      PICPRK_ASSERT(runs[r].end == tiles_[t].end);
      leaving_[t] = 1;
      leaving_rows += tiles_[t].end - tiles_[t].begin;
      ++r;
    }
    PICPRK_ASSERT(r == runs.size() || runs[r].begin >= tiled_end);
    const std::size_t new_end = tiled_end - leaving_rows;

    // Fill holes below new_end from the keeper rows at or above it.
    // Both walks go forward, and every donor row sits above every hole.
    kept_.clear();
    std::size_t donor = 0;
    while (donor < leaving_.size() && tiles_[donor].end <= new_end) ++donor;
    const auto next_keeper = [&](std::size_t t) {
      while (t < leaving_.size() && leaving_[t] != 0) ++t;
      return t;
    };
    donor = next_keeper(donor);
    std::size_t from =
        donor < leaving_.size() ? std::max(tiles_[donor].begin, new_end) : 0;
    for (std::size_t t = 0; t < leaving_.size() && tiles_[t].begin < new_end; ++t) {
      const std::size_t end = std::min(tiles_[t].end, new_end);
      if (leaving_[t] == 0) {
        keep(tiles_[t].cx, tiles_[t].cy, tiles_[t].begin, end);
        continue;
      }
      for (std::size_t hole = tiles_[t].begin; hole < end;) {
        const Tile& d = tiles_[donor];
        const std::size_t count = std::min(end - hole, d.end - from);
        soa.move_rows(hole, from, count);
        keep(d.cx, d.cy, hole, hole + count);
        moved += count;
        hole += count;
        from += count;
        if (from == d.end) {
          donor = next_keeper(donor + 1);
          if (donor < leaving_.size()) from = tiles_[donor].begin;
        }
      }
    }

    // Stable tail compaction: keeper blocks between the tail runs.
    std::size_t w = new_end;
    std::size_t i = tiled_end;
    for (; r <= runs.size(); ++r) {
      const std::size_t stop = r < runs.size() ? runs[r].begin : n;
      soa.move_rows(w, i, stop - i);
      if (w != i) moved += stop - i;
      w += stop - i;
      if (r < runs.size()) i = runs[r].end;
    }
    soa.truncate(w);

    if (!dirty_) {
      tiles_.swap(kept_);
      tiled_end_ = new_end;
    }
    return moved;
  }

  /// Structural invariant, for tests and PICPRK_EXPENSIVE_CHECKS sweeps:
  /// tiles partition [0, tail_begin()) contiguously in order, and every
  /// tiled row's cell matches its tile label. Each row is therefore
  /// indexed exactly once (tiles) or left to the tail — never both.
  bool check(const ParticleSoA& soa, const GridSpec& grid) const {
    if (dirty_) return false;
    if (tiled_end_ > soa.size()) return false;
    std::size_t cursor = 0;
    for (const Tile& t : tiles_) {
      if (t.begin != cursor || t.end <= t.begin) return false;
      if (!region_.contains_cell(t.cx, t.cy) &&
          (t.cx < 0 || t.cx >= grid.cells || t.cy < 0 || t.cy >= grid.cells)) {
        return false;
      }
      for (std::size_t i = t.begin; i < t.end; ++i) {
        if (grid.cell_of(soa.x[i]) != t.cx || grid.cell_of(soa.y[i]) != t.cy) return false;
      }
      cursor = t.end;
    }
    return cursor == tiled_end_;
  }

 private:
  // Bucket-array ceiling: above this the counting sort's memory/clearing
  // cost is unreasonable for any realistic population.
  static constexpr std::size_t kMaxBuckets = std::size_t{1} << 24;

  // Appends [begin, end) of cell (cx, cy) to the tile list remove()
  // builds, extending the last tile when it is the same cell.
  void keep(std::int64_t cx, std::int64_t cy, std::size_t begin, std::size_t end) {
    if (!kept_.empty() && kept_.back().cx == cx && kept_.back().cy == cy &&
        kept_.back().end == begin) {
      kept_.back().end = end;
      return;
    }
    kept_.push_back(Tile{cx, cy, begin, end});
  }

  template <typename T>
  void permute(std::vector<T>& column, std::vector<T>& tmp) {
    const std::size_t n = column.size();
    tmp.resize(n);
    for (std::size_t i = 0; i < n; ++i) tmp[dest_[i]] = column[i];
    column.swap(tmp);
  }

  // Typed scratch, selected by column type; swap() in permute() keeps
  // the retired buffer for the next column/rebuild.
  std::vector<double>& scratch(const std::vector<double>&) { return scratch_f64_; }
  std::vector<std::int32_t>& scratch(const std::vector<std::int32_t>&) { return scratch_i32_; }
  std::vector<std::uint32_t>& scratch(const std::vector<std::uint32_t>&) { return scratch_u32_; }
  std::vector<std::uint64_t>& scratch(const std::vector<std::uint64_t>&) { return scratch_u64_; }

  CellRegion region_;
  std::vector<Tile> tiles_;
  std::size_t tiled_end_ = 0;
  bool dirty_ = true;

  std::vector<std::size_t> key_, counts_, starts_, dest_;
  std::vector<Tile> kept_;              // remove()'s new tile list
  std::vector<unsigned char> leaving_;  // remove()'s per-tile flag
  std::vector<double> scratch_f64_;
  std::vector<std::int32_t> scratch_i32_;
  std::vector<std::uint32_t> scratch_u32_;
  std::vector<std::uint64_t> scratch_u64_;
};

}  // namespace picprk::pic
