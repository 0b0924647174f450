// The cell tile index over the SoA store: the counting-sort rebuild
// (stability, exact-once coverage, out-of-region tail), the post-move
// revalidation that replaces per-step re-sorts, and the tile-granular
// emigrant removal that keeps the index alive through particle exchanges.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <map>
#include <set>
#include <span>
#include <vector>

#include "pic/geometry.hpp"
#include "pic/particle.hpp"
#include "pic/tiling.hpp"

namespace {

using namespace picprk;
using pic::CellRegion;
using pic::GridSpec;
using pic::Particle;
using pic::ParticleSoA;
using pic::TileIndex;

constexpr std::int64_t kCells = 16;
const GridSpec kGrid(kCells, 1.0);

/// A particle centred in cell (cx, cy) with a distinguishing id.
Particle in_cell(std::int64_t cx, std::int64_t cy, std::uint64_t id) {
  Particle p;
  p.x = (static_cast<double>(cx) + 0.5) * kGrid.h;
  p.y = (static_cast<double>(cy) + 0.5) * kGrid.h;
  p.id = id;
  return p;
}

/// Deterministic pseudo-random population over `region` (and a few
/// strays outside it when `with_strays`).
ParticleSoA populate(const CellRegion& region, std::size_t n, bool with_strays) {
  std::vector<Particle> aos;
  aos.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t cx = region.x0 + static_cast<std::int64_t>((i * 7 + 3) %
                                static_cast<std::size_t>(region.width()));
    const std::int64_t cy = region.y0 + static_cast<std::int64_t>((i * 5 + 1) %
                                static_cast<std::size_t>(region.height()));
    aos.push_back(in_cell(cx, cy, i + 1));
  }
  if (with_strays) {
    aos.push_back(in_cell((region.x1 + 1) % kCells, region.y0, n + 1));
    aos.push_back(in_cell(region.x0, (region.y1 + 2) % kCells, n + 2));
  }
  return pic::to_soa(aos);
}

TEST(TileIndex, RebuildIndexesEveryRowExactlyOnce) {
  const CellRegion region{2, 10, 4, 12};
  ParticleSoA soa = populate(region, 200, /*with_strays=*/true);
  TileIndex tiles(region);
  EXPECT_FALSE(tiles.fresh());

  tiles.rebuild(soa, kGrid);
  ASSERT_TRUE(tiles.fresh());
  EXPECT_TRUE(tiles.check(soa, kGrid));

  // Tiles partition [0, tail_begin()) and the two strays fill the tail.
  std::size_t covered = 0;
  for (const TileIndex::Tile& t : tiles.tiles()) {
    EXPECT_EQ(t.begin, covered);
    EXPECT_GT(t.end, t.begin);
    EXPECT_TRUE(region.contains_cell(t.cx, t.cy));
    covered = t.end;
  }
  EXPECT_EQ(covered, tiles.tail_begin());
  EXPECT_EQ(soa.size() - tiles.tail_begin(), 2u);

  // Every id survives the permutation exactly once.
  std::vector<std::uint64_t> ids(soa.id);
  std::sort(ids.begin(), ids.end());
  for (std::size_t i = 0; i < ids.size(); ++i) EXPECT_EQ(ids[i], i + 1);
}

TEST(TileIndex, RebuildIsStableWithinACell) {
  // Three particles share a cell; the counting sort must keep their
  // original relative order (ordering is what makes the tiled mover
  // bit-identical to the flat one).
  std::vector<Particle> aos = {in_cell(5, 5, 10), in_cell(3, 3, 11), in_cell(5, 5, 12),
                               in_cell(3, 3, 13), in_cell(5, 5, 14)};
  ParticleSoA soa = pic::to_soa(aos);
  TileIndex tiles(CellRegion{0, kCells, 0, kCells});
  tiles.rebuild(soa, kGrid);

  std::map<std::pair<std::int64_t, std::int64_t>, std::vector<std::uint64_t>> by_cell;
  for (const TileIndex::Tile& t : tiles.tiles()) {
    for (std::size_t i = t.begin; i < t.end; ++i) {
      by_cell[{t.cx, t.cy}].push_back(soa.id[i]);
    }
  }
  EXPECT_EQ((by_cell[{3, 3}]), (std::vector<std::uint64_t>{11, 13}));
  EXPECT_EQ((by_cell[{5, 5}]), (std::vector<std::uint64_t>{10, 12, 14}));
}

TEST(TileIndex, RevalidateAfterUniformDriftKeepsIndexFresh) {
  const CellRegion region{0, kCells, 0, kCells};
  ParticleSoA soa = populate(region, 150, /*with_strays=*/false);
  TileIndex tiles(region);
  tiles.rebuild(soa, kGrid);

  // Shift every particle by exactly one cell in x (with periodic wrap):
  // each tile lands intact in a new cell — no re-sort needed.
  for (std::size_t i = 0; i < soa.size(); ++i) {
    soa.x[i] = pic::wrap(soa.x[i] + kGrid.h, kGrid.length());
  }
  EXPECT_TRUE(tiles.revalidate_after_move(soa, kGrid));
  EXPECT_TRUE(tiles.fresh());
  EXPECT_TRUE(tiles.check(soa, kGrid));
}

TEST(TileIndex, RevalidateDetectsAScatteredTileAndMarksDirty) {
  std::vector<Particle> aos = {in_cell(4, 4, 1), in_cell(4, 4, 2), in_cell(4, 4, 3)};
  ParticleSoA soa = pic::to_soa(aos);
  TileIndex tiles(CellRegion{0, kCells, 0, kCells});
  tiles.rebuild(soa, kGrid);

  soa.x[1] += 2.0 * kGrid.h;  // one member leaves; the tile scattered
  EXPECT_FALSE(tiles.revalidate_after_move(soa, kGrid));
  EXPECT_FALSE(tiles.fresh());
  EXPECT_FALSE(tiles.check(soa, kGrid));
}

/// Runs for TileIndex::remove: every third tile leaves whole, and every
/// other tail row from `tail_stride` on leaves on its own.
std::vector<pic::RowRun> emigrant_runs(const TileIndex& tiles, std::size_t n) {
  std::vector<pic::RowRun> runs;
  const auto list = tiles.tiles();
  for (std::size_t t = 0; t < list.size(); t += 3) {
    runs.push_back({list[t].begin, list[t].end, 1});
  }
  for (std::size_t i = tiles.fresh() ? tiles.tail_begin() : 0; i < n; i += 2) {
    if (!runs.empty() && runs.back().end > i) continue;
    runs.push_back({i, i + 1, 1});
  }
  return runs;
}

TEST(TileIndex, RemoveFillsEmigrantTileHolesFromTheEndOfTheTiledRegion) {
  const CellRegion region{0, 8, 0, 8};
  ParticleSoA soa = populate(region, 300, /*with_strays=*/false);
  TileIndex tiles(region);
  tiles.rebuild(soa, kGrid);
  // Immigrants since the rebuild form the tail.
  std::vector<Particle> immigrants;
  for (std::uint64_t i = 0; i < 20; ++i) {
    immigrants.push_back(in_cell(static_cast<std::int64_t>(i % 8), 3, 1000 + i));
  }
  soa.append(std::span<const Particle>(immigrants));
  const std::size_t tail_rows = soa.size() - tiles.tail_begin();

  const std::vector<pic::RowRun> runs = emigrant_runs(tiles, soa.size());
  std::multiset<std::uint64_t> expected(soa.id.begin(), soa.id.end());
  std::size_t emigrant_rows = 0;
  for (const pic::RowRun& run : runs) {
    emigrant_rows += run.end - run.begin;
    for (std::size_t i = run.begin; i < run.end; ++i) {
      expected.erase(expected.find(soa.id[i]));
    }
  }
  ASSERT_GT(emigrant_rows, tail_rows);

  const std::size_t moved = tiles.remove(soa, std::span<const pic::RowRun>(runs));

  // Exactly the keepers remain, the tiles partition [0, tail_begin())
  // with labels matching their rows, and the work is bounded by the
  // emigrants plus the tail — not by the store.
  EXPECT_EQ(std::multiset<std::uint64_t>(soa.id.begin(), soa.id.end()), expected);
  ASSERT_TRUE(tiles.fresh());
  EXPECT_TRUE(tiles.check(soa, kGrid));
  std::size_t covered = 0;
  for (const TileIndex::Tile& t : tiles.tiles()) {
    EXPECT_EQ(t.begin, covered);
    EXPECT_GT(t.end, t.begin);
    for (std::size_t i = t.begin; i < t.end; ++i) {
      EXPECT_EQ(kGrid.cell_of(soa.x[i]), t.cx);
      EXPECT_EQ(kGrid.cell_of(soa.y[i]), t.cy);
    }
    covered = t.end;
  }
  EXPECT_EQ(covered, tiles.tail_begin());
  EXPECT_LE(moved, emigrant_rows + tail_rows);
  // The surviving tail rows keep their order behind the tiles.
  for (std::size_t i = tiles.tail_begin() + 1; i < soa.size(); ++i) {
    EXPECT_LT(soa.id[i - 1], soa.id[i]);
  }
}

TEST(TileIndex, RemoveOnADirtyIndexCompactsTheWholeStoreStably) {
  const CellRegion region{0, 8, 0, 8};
  ParticleSoA soa = populate(region, 60, /*with_strays=*/false);
  TileIndex tiles(region);  // never built: dirty, so every row is tail
  const std::vector<pic::RowRun> runs = emigrant_runs(tiles, soa.size());

  tiles.remove(soa, std::span<const pic::RowRun>(runs));

  EXPECT_FALSE(tiles.fresh());
  ASSERT_EQ(soa.size(), 30u);
  for (std::size_t i = 0; i < soa.size(); ++i) EXPECT_EQ(soa.id[i], 2 * i + 2);
}

TEST(TileIndex, AppendedRowsLandInTheTailWithoutDirtyingTheIndex) {
  const CellRegion region{0, kCells, 0, kCells};
  ParticleSoA soa = populate(region, 100, /*with_strays=*/false);
  TileIndex tiles(region);
  tiles.rebuild(soa, kGrid);
  EXPECT_DOUBLE_EQ(tiles.tail_fraction(soa), 0.0);

  const std::vector<Particle> immigrants = {in_cell(1, 1, 900), in_cell(2, 2, 901)};
  soa.append(std::span<const Particle>(immigrants));
  EXPECT_TRUE(tiles.fresh());
  EXPECT_TRUE(tiles.check(soa, kGrid));
  EXPECT_NEAR(tiles.tail_fraction(soa), 2.0 / 102.0, 1e-12);
}

TEST(TileIndex, DegenerateRegionFallsBackToAnAllTailIndex) {
  // A region far larger than the population: bucketing would cost more
  // than tiling saves, so everything stays in the (flat-moved) tail —
  // still a valid, fresh index.
  const GridSpec big(1 << 13, 1.0);
  const CellRegion region{0, big.cells, 0, big.cells};
  std::vector<Particle> aos;
  for (std::uint64_t i = 0; i < 10; ++i) {
    Particle p;
    p.x = 0.5 * big.h * static_cast<double>(2 * i + 1);
    p.y = p.x;
    p.id = i + 1;
    aos.push_back(p);
  }
  ParticleSoA soa = pic::to_soa(aos);
  TileIndex tiles(region);
  tiles.rebuild(soa, big);
  EXPECT_TRUE(tiles.fresh());
  EXPECT_TRUE(tiles.tiles().empty());
  EXPECT_EQ(tiles.tail_begin(), 0u);
  EXPECT_TRUE(tiles.check(soa, big));
}

TEST(TileIndex, ResetRegionRetargetsAndDirties) {
  const CellRegion region{0, 8, 0, 8};
  ParticleSoA soa = populate(region, 50, /*with_strays=*/false);
  TileIndex tiles(region);
  tiles.rebuild(soa, kGrid);
  ASSERT_TRUE(tiles.fresh());

  const CellRegion moved{4, 12, 0, 8};
  tiles.reset_region(moved);
  EXPECT_FALSE(tiles.fresh());
  tiles.rebuild(soa, kGrid);
  EXPECT_TRUE(tiles.fresh());
  EXPECT_TRUE(tiles.check(soa, kGrid));
  // Rows in cells [0,4)×... now sit in the tail of the new region.
  for (const TileIndex::Tile& t : tiles.tiles()) {
    EXPECT_TRUE(moved.contains_cell(t.cx, t.cy));
  }
}

}  // namespace
