#include "ft/checkpoint.hpp"

#include <algorithm>

namespace picprk::ft {

void CheckpointStore::insert(History& history, std::uint32_t step,
                             std::vector<std::byte> bytes) {
  // Overwrite an existing snapshot at the same step (a re-checkpoint
  // after resume), else prepend and evict the oldest.
  for (auto& entry : history) {
    if (entry.step == step) {
      entry.bytes = std::move(bytes);
      return;
    }
  }
  history.insert(history.begin(), Entry{step, std::move(bytes)});
  std::sort(history.begin(), history.end(),
            [](const Entry& a, const Entry& b) { return a.step > b.step; });
  if (history.size() > kHistoryDepth) history.resize(kHistoryDepth);
}

const CheckpointStore::Entry* CheckpointStore::find(const History& history,
                                                    std::uint32_t step) {
  for (const auto& entry : history) {
    if (entry.step == step) return &entry;
  }
  return nullptr;
}

void CheckpointStore::save(int slot, std::uint32_t step, std::vector<std::byte> bytes) {
  std::scoped_lock lock(mutex_);
  saved_bytes_->add(bytes.size());
  insert(primary_[slot], step, std::move(bytes));
  saves_->add();
}

void CheckpointStore::save_buddy(int owner, std::uint32_t step,
                                 std::vector<std::byte> bytes) {
  std::scoped_lock lock(mutex_);
  saved_bytes_->add(bytes.size());
  insert(buddy_[owner], step, std::move(bytes));
  saves_->add();
}

std::optional<std::uint32_t> CheckpointStore::consistent_step(int slots) const {
  std::scoped_lock lock(mutex_);
  // Candidate steps: everything slot 0 still holds, newest first.
  std::vector<std::uint32_t> candidates;
  auto collect = [&](const std::unordered_map<int, History>& copies, int slot) {
    const auto it = copies.find(slot);
    if (it == copies.end()) return;
    for (const auto& entry : it->second) {
      if (std::find(candidates.begin(), candidates.end(), entry.step) ==
          candidates.end()) {
        candidates.push_back(entry.step);
      }
    }
  };
  collect(primary_, 0);
  collect(buddy_, 0);
  std::sort(candidates.begin(), candidates.end(), std::greater<>());

  for (const std::uint32_t step : candidates) {
    bool everyone = true;
    for (int slot = 0; slot < slots && everyone; ++slot) {
      const auto pit = primary_.find(slot);
      const auto bit = buddy_.find(slot);
      const bool has = (pit != primary_.end() && find(pit->second, step) != nullptr) ||
                       (bit != buddy_.end() && find(bit->second, step) != nullptr);
      everyone = has;
    }
    if (everyone) return step;
  }
  return std::nullopt;
}

std::optional<std::vector<std::byte>> CheckpointStore::load(int slot,
                                                            std::uint32_t step) const {
  std::scoped_lock lock(mutex_);
  if (const auto it = primary_.find(slot); it != primary_.end()) {
    if (const Entry* entry = find(it->second, step)) {
      restores_->add();
      return entry->bytes;
    }
  }
  if (const auto it = buddy_.find(slot); it != buddy_.end()) {
    if (const Entry* entry = find(it->second, step)) {
      restores_->add();
      return entry->bytes;
    }
  }
  return std::nullopt;
}

void CheckpointStore::drop_primary(int slot) {
  std::scoped_lock lock(mutex_);
  primary_.erase(slot);
}

void CheckpointStore::clear() {
  std::scoped_lock lock(mutex_);
  primary_.clear();
  buddy_.clear();
}

// picprk-lint: suppress(reach: read by CheckpointStore.AccountingTracksBytesAndSaves)
std::uint64_t CheckpointStore::stored_bytes() const {
  std::scoped_lock lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& [slot, history] : primary_) {
    for (const auto& entry : history) total += entry.bytes.size();
  }
  for (const auto& [slot, history] : buddy_) {
    for (const auto& entry : history) total += entry.bytes.size();
  }
  return total;
}

}  // namespace picprk::ft
