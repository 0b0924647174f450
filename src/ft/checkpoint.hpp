// In-memory checkpoint store for the PUP-based checkpoint/restart layer
// (docs/RESILIENCE.md). The store lives *outside* the world, so
// snapshots survive an aborted run and the recovery loop can roll a
// fresh run back to the last consistent checkpoint.
//
// Two copies per slot model buddy checkpointing (Charm++'s double
// in-memory scheme): each rank keeps its own snapshot (primary) and
// ships a copy to its buddy rank, which stores it here under the
// owner's slot id (buddy). When a rank dies, drop_primary() simulates
// the loss of its memory; restore then falls back to the buddy copy.
//
// A short history (two snapshots per slot) keeps a consistent recovery
// line available even when a failure interrupts the checkpoint round
// itself: consistent_step() returns the newest step for which *every*
// slot still has some copy.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "obs/registry.hpp"

namespace picprk::ft {

class CheckpointStore {
 public:
  /// Snapshots kept per slot (per copy class); older ones are evicted.
  static constexpr std::size_t kHistoryDepth = 2;

  /// Stores `slot`'s own snapshot taken at `step`.
  void save(int slot, std::uint32_t step, std::vector<std::byte> bytes);

  /// Stores the buddy copy of `owner`'s snapshot (called by the buddy).
  void save_buddy(int owner, std::uint32_t step, std::vector<std::byte> bytes);

  /// Newest step S such that every slot in [0, slots) has a primary or
  /// buddy snapshot at S — the consistent recovery line.
  std::optional<std::uint32_t> consistent_step(int slots) const;

  /// Snapshot of `slot` at `step`; primary preferred, buddy fallback.
  std::optional<std::vector<std::byte>> load(int slot, std::uint32_t step) const;

  /// Simulates the loss of a dead rank's memory: all of `slot`'s primary
  /// snapshots vanish; only copies held by its buddy remain.
  void drop_primary(int slot);

  void clear();

  /// Total bytes currently held (both copy classes).
  std::uint64_t stored_bytes() const;
  /// Total save calls accepted (primary + buddy), over the store's life.
  std::uint64_t saves() const { return saves_->value(); }

  /// Per-instance metric registry ("ft/checkpoint_saves", ...); stores
  /// are often test- or run-scoped, so counts stay with the instance.
  const obs::Registry& metrics() const { return metrics_; }

 private:
  struct Entry {
    std::uint32_t step = 0;
    std::vector<std::byte> bytes;
  };
  /// Newest-first, at most kHistoryDepth entries.
  using History = std::vector<Entry>;

  static void insert(History& history, std::uint32_t step, std::vector<std::byte> bytes);
  static const Entry* find(const History& history, std::uint32_t step);

  mutable std::mutex mutex_;
  std::unordered_map<int, History> primary_;
  std::unordered_map<int, History> buddy_;
  /// Lifetime tallies as obs counters (metrics_ owns the storage).
  obs::Registry metrics_;
  obs::Counter* saves_ = &metrics_.register_counter("ft/checkpoint_saves");
  obs::Counter* restores_ = &metrics_.register_counter("ft/checkpoint_restores");
  obs::Counter* saved_bytes_ = &metrics_.register_counter("ft/checkpoint_bytes_saved");
};

}  // namespace picprk::ft
