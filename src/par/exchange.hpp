// Particle exchange: after the move phase (or after a decomposition
// change) every rank routes the particles that no longer belong to its
// block to their new owner (paper §IV-A: "Each processor sends the
// particles that left its subdomain to the appropriate remote
// processor"). Routing is by owner lookup, not nearest-neighbor only, so
// arbitrary particle speeds (large k, m) are handled.
//
// Hot path (the SoA store the drivers run on): ownership is a per-cell
// fact and a fresh tile is one cell, so split_emigrants decides the
// owner once per tile and row by row only in the index's untiled tail.
// Emigrants are packed straight from the columns into the 80-byte wire
// records, grouped by destination rank, and TileIndex::remove fills the
// holes they leave from the end of the tiled region — the local work is
// O(tiles + tail + emigrants), not O(n). The packed buffer is shipped
// with the flat-buffer `Comm::alltoallv` (counts + one packed payload per
// non-empty peer, buffers moved into the mailbox, byte buffers recycled
// through a pool). The VP routing of the ampi/async/serve engines
// (par/pic_vp.cpp) runs the same split.
//
// All scratch lives in a caller-owned ExchangeBuffers workspace, so
// steady-state exchange performs no heap allocation —
// `ExchangeBuffers::allocations()` is the test hook that proves it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "comm/comm.hpp"
#include "obs/registry.hpp"
#include "par/decomposition.hpp"
#include "pic/particle.hpp"
#include "pic/tiling.hpp"

namespace picprk::par {

struct ExchangeStats {
  std::uint64_t sent = 0;      ///< particles shipped to other ranks
  std::uint64_t received = 0;  ///< particles received from other ranks
  std::uint64_t bytes = 0;     ///< payload bytes sent by this rank
};

/// Whole-run exchange traffic, accumulated by every exchange through a
/// workspace. Plain integers (not atomics): the workspace is rank-local,
/// and checkpoint/restore can copy the struct wholesale. Replaces the
/// per-driver `sent/bytes` tally locals the drivers used to carry.
struct ExchangeTotals {
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  std::uint64_t bytes = 0;
};

/// Reusable per-rank exchange workspace. Owned by a driver and passed to
/// every exchange_particles call (a PicVp owns one for its routing); all
/// buffers grow to their steady-state high-water mark during warm-up and
/// are reused afterwards.
/// `allocations()` counts every buffer growth (including the byte-buffer
/// pool shared with the comm layer), so a test can assert that it stops
/// increasing once traffic reaches steady state.
struct ExchangeBuffers {
  std::vector<std::uint64_t> send_counts;   ///< per-destination particle counts
  std::vector<std::uint64_t> recv_counts;   ///< per-source particle counts
  std::vector<std::uint64_t> cursor;        ///< per-destination write cursors
  std::vector<int> owner;                   ///< per-particle destination cache (AoS)
  std::vector<pic::RowRun> runs;            ///< emigrant row runs in store order (SoA)
  std::vector<int> dsts;                    ///< destinations of this split, ascending
  std::vector<std::uint64_t> dst_counts;    ///< emigrants per entry of `dsts`
  std::vector<pic::Particle> packed;        ///< emigrant payload grouped by destination
  std::vector<pic::Particle> received;      ///< immigrants, appended to `mine`
  comm::BufferPool pool;                    ///< recycled message byte buffers

  /// Whole-run traffic; every exchange through this workspace adds its
  /// ExchangeStats here (and into the optional obs counters below).
  ExchangeTotals totals;

  /// Optional telemetry mirrors (obs::Registry handles); null = dark.
  /// Set at driver setup from a StepInstruments bundle.
  obs::Counter* sent_counter = nullptr;
  obs::Counter* received_counter = nullptr;
  obs::Counter* bytes_counter = nullptr;

  /// Folds one exchange's stats into the running totals + mirrors.
  void note_traffic(const ExchangeStats& stats) {
    totals.sent += stats.sent;
    totals.received += stats.received;
    totals.bytes += stats.bytes;
    if (sent_counter != nullptr) sent_counter->add(stats.sent);
    if (received_counter != nullptr) received_counter->add(stats.received);
    if (bytes_counter != nullptr) bytes_counter->add(stats.bytes);
  }

  /// Total buffer growths so far (workspace vectors + pooled byte
  /// buffers). Constant across steps once traffic is steady.
  std::uint64_t allocations() const { return growths_ + pool.allocations(); }

  /// Resizes `v` to `n`, counting a growth when capacity was
  /// insufficient. Grows with 50% headroom so bounded step-to-step
  /// fluctuation settles after one growth.
  template <typename V>
  void fit(V& v, std::size_t n) {
    if (v.capacity() < n) {
      ++growths_;
      v.reserve(n + n / 2);
    }
    v.resize(n);
  }

  /// Records a buffer growth observed outside `fit` (e.g. `received`
  /// grown inside the collective).
  void note_growth() { ++growths_; }

 private:
  std::uint64_t growths_ = 0;
};

/// Generalised flat-buffer exchange for arbitrary ownership:
/// `owner_of(x, y)` maps a position to its rank. Post-condition:
/// owner_of(p) == my rank for every particle kept. The result order is
/// deterministic: keepers first in their original order (they never
/// leave `mine` — in steady state the overwhelming majority of particles
/// stay put, so only emigrants are packed and shipped), then immigrants
/// in ascending source-rank order.
template <typename OwnerFn>
ExchangeStats exchange_particles_by(comm::Comm& comm, OwnerFn&& owner_of,
                                    std::vector<pic::Particle>& mine,
                                    ExchangeBuffers& buffers) {
  const auto p = static_cast<std::size_t>(comm.size());
  const auto me = static_cast<std::size_t>(comm.rank());
  const std::size_t n = mine.size();

  // Pass 1: destination of every particle + per-destination counts.
  buffers.fit(buffers.owner, n);
  buffers.fit(buffers.send_counts, p);
  buffers.fit(buffers.cursor, p);
  buffers.fit(buffers.recv_counts, p);
  std::fill(buffers.send_counts.begin(), buffers.send_counts.end(), 0);
  for (std::size_t i = 0; i < n; ++i) {
    const int dst = owner_of(mine[i].x, mine[i].y);
    buffers.owner[i] = dst;
    ++buffers.send_counts[static_cast<std::size_t>(dst)];
  }
  const std::uint64_t keepers = buffers.send_counts[me];
  buffers.send_counts[me] = 0;  // keepers are not traffic

  // Pass 2: compact keepers in place (stable) and counting-sort the
  // emigrants into the packed send buffer, grouped by destination.
  std::uint64_t offset = 0;
  for (std::size_t r = 0; r < p; ++r) {
    buffers.cursor[r] = offset;
    offset += buffers.send_counts[r];
  }
  buffers.fit(buffers.packed, n - static_cast<std::size_t>(keepers));
  std::size_t w = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (buffers.owner[i] == static_cast<int>(me)) {
      if (w != i) mine[w] = mine[i];
      ++w;
    } else {
      buffers.packed[buffers.cursor[static_cast<std::size_t>(buffers.owner[i])]++] =
          mine[i];
    }
  }
  mine.resize(w);  // shrink: never reallocates

  const std::size_t recv_capacity = buffers.received.capacity();
  comm.alltoallv(std::span<const pic::Particle>(buffers.packed),
                 std::span<const std::uint64_t>(buffers.send_counts), buffers.received,
                 buffers.recv_counts, &buffers.pool);
  if (buffers.received.capacity() > recv_capacity) buffers.note_growth();

  const std::size_t mine_capacity = mine.capacity();
  mine.insert(mine.end(), buffers.received.begin(), buffers.received.end());
  if (mine.capacity() > mine_capacity) buffers.note_growth();

  ExchangeStats stats;
  stats.sent = static_cast<std::uint64_t>(n) - keepers;
  stats.bytes = stats.sent * sizeof(pic::Particle);
  stats.received = buffers.received.size();
  buffers.note_traffic(stats);
  return stats;
}

/// Convenience overload with a throwaway workspace (tests, one-shot
/// callers). Drivers should own an ExchangeBuffers instead.
template <typename OwnerFn>
ExchangeStats exchange_particles_by(comm::Comm& comm, OwnerFn&& owner_of,
                                    std::vector<pic::Particle>& mine) {
  ExchangeBuffers buffers;
  return exchange_particles_by(comm, std::forward<OwnerFn>(owner_of), mine, buffers);
}

/// The post-move split of a SoA store, shared by the SoA exchange and
/// the VP routing (par/pic_vp.cpp). Decides the owner once per tile of
/// a fresh index, from the tile's first row, and row by row only in the
/// untiled tail (a dirty index is all tail). Packs every emigrant into
/// `buffers.packed` — grouped by destination in ascending order, in
/// store order within a group, so the wire bytes for a given store are
/// those of a row-by-row stable pass — then removes the emigrants with
/// TileIndex::remove. On return `buffers.dsts[j]` is owed
/// `buffers.dst_counts[j]` records; the result is the emigrant count.
template <typename OwnerFn>
std::size_t split_emigrants(OwnerFn&& owner_of, int me, pic::ParticleSoA& mine,
                            pic::TileIndex& tiles, ExchangeBuffers& buffers) {
  std::vector<pic::RowRun>& runs = buffers.runs;
  std::vector<int>& dsts = buffers.dsts;
  std::vector<std::uint64_t>& counts = buffers.dst_counts;
  const std::size_t capacity_before =
      runs.capacity() + dsts.capacity() + counts.capacity();
  runs.clear();
  std::size_t tail = 0;
  if (tiles.fresh()) {
    for (const pic::TileIndex::Tile& t : tiles.tiles()) {
      const int dst = owner_of(mine.x[t.begin], mine.y[t.begin]);
      if (dst != me) runs.push_back({t.begin, t.end, dst});
    }
    tail = tiles.tail_begin();
  }
  const std::size_t tile_runs = runs.size();
  for (std::size_t i = tail; i < mine.size(); ++i) {
    const int dst = owner_of(mine.x[i], mine.y[i]);
    if (dst == me) continue;
    if (runs.size() > tile_runs && runs.back().end == i && runs.back().dst == dst) {
      ++runs.back().end;
    } else {
      runs.push_back({i, i + 1, dst});
    }
  }

  // Destinations in ascending order (few: the neighbours a hop reaches),
  // each with its emigrant count, then a write cursor per destination.
  dsts.clear();
  counts.clear();
  const auto slot_of = [&dsts](int dst) {
    return static_cast<std::size_t>(std::lower_bound(dsts.begin(), dsts.end(), dst) -
                                    dsts.begin());
  };
  std::size_t emigrants = 0;
  for (const pic::RowRun& run : runs) {
    const std::size_t j = slot_of(run.dst);
    if (j == dsts.size() || dsts[j] != run.dst) {
      dsts.insert(dsts.begin() + static_cast<std::ptrdiff_t>(j), run.dst);
      counts.insert(counts.begin() + static_cast<std::ptrdiff_t>(j), 0);
    }
    counts[j] += run.end - run.begin;
    emigrants += run.end - run.begin;
  }
  if (runs.capacity() + dsts.capacity() + counts.capacity() > capacity_before) {
    buffers.note_growth();
  }
  buffers.fit(buffers.cursor, dsts.size());
  std::uint64_t offset = 0;
  for (std::size_t j = 0; j < dsts.size(); ++j) {
    buffers.cursor[j] = offset;
    offset += counts[j];
  }

  // Pack from the columns, in store order.
  buffers.fit(buffers.packed, emigrants);
  for (const pic::RowRun& run : runs) {
    std::uint64_t& cursor = buffers.cursor[slot_of(run.dst)];
    for (std::size_t i = run.begin; i < run.end; ++i) {
      buffers.packed[cursor++] = mine.get(i);
    }
  }

  tiles.remove(mine, std::span<const pic::RowRun>(runs));
  return emigrants;
}

/// SoA-store exchange: same protocol and wire format as the AoS
/// overload — emigrants leave as 80-byte wire records in one flat
/// alltoallv payload, immigrants are unpacked onto the end of the store
/// (the index's tail). The local half is split_emigrants, so keepers do
/// NOT keep their relative order: holes left by emigrant tiles are
/// filled from the end of the tiled region (TileIndex::remove). Ids,
/// counts, ExchangeStats and wire bytes per store are those of the AoS
/// overload; only the keeper order differs.
template <typename OwnerFn>
ExchangeStats exchange_particles_by(comm::Comm& comm, OwnerFn&& owner_of,
                                    pic::ParticleSoA& mine, pic::TileIndex& tiles,
                                    ExchangeBuffers& buffers) {
  const auto p = static_cast<std::size_t>(comm.size());
  const std::size_t sent =
      split_emigrants(std::forward<OwnerFn>(owner_of), comm.rank(), mine, tiles, buffers);
  buffers.fit(buffers.send_counts, p);
  buffers.fit(buffers.recv_counts, p);
  std::fill(buffers.send_counts.begin(), buffers.send_counts.end(), 0);
  for (std::size_t j = 0; j < buffers.dsts.size(); ++j) {
    const auto dst = static_cast<std::size_t>(buffers.dsts[j]);
    buffers.send_counts[dst] = buffers.dst_counts[j];
  }

  const std::size_t recv_capacity = buffers.received.capacity();
  comm.alltoallv(std::span<const pic::Particle>(buffers.packed),
                 std::span<const std::uint64_t>(buffers.send_counts), buffers.received,
                 buffers.recv_counts, &buffers.pool);
  if (buffers.received.capacity() > recv_capacity) buffers.note_growth();

  const std::size_t mine_capacity = mine.capacity();
  mine.append(std::span<const pic::Particle>(buffers.received));
  if (mine.capacity() > mine_capacity) buffers.note_growth();

  ExchangeStats stats;
  stats.sent = sent;
  stats.bytes = stats.sent * sizeof(pic::Particle);
  stats.received = buffers.received.size();
  buffers.note_traffic(stats);
  return stats;
}

/// Routes emigrants in `mine` to their owners and appends immigrants.
/// Collective over `comm`. Post-condition: every particle in `mine`
/// belongs to this rank's block (verified exhaustively only under
/// PICPRK_EXPENSIVE_CHECKS builds — the O(n) sweep would distort release
/// timings).
ExchangeStats exchange_particles(comm::Comm& comm, const Decomposition2D& decomp,
                                 std::vector<pic::Particle>& mine,
                                 ExchangeBuffers& buffers);

/// Convenience overload with a throwaway workspace.
ExchangeStats exchange_particles(comm::Comm& comm, const Decomposition2D& decomp,
                                 std::vector<pic::Particle>& mine);

/// SoA-store variant of exchange_particles; `tiles` indexes `mine`
/// (fresh or dirty) and is kept valid.
ExchangeStats exchange_particles(comm::Comm& comm, const Decomposition2D& decomp,
                                 pic::ParticleSoA& mine, pic::TileIndex& tiles,
                                 ExchangeBuffers& buffers);

}  // namespace picprk::par
