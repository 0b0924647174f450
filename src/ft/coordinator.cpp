#include "ft/coordinator.hpp"

#include "comm/comm.hpp"
#include "comm/world.hpp"
#include "ft/checkpoint.hpp"
#include "util/assert.hpp"

namespace picprk::ft {

RecoveryCoordinator::RecoveryCoordinator(CheckpointStore* store, int ranks,
                                         int rendezvous_timeout_ms)
    : store_(store), ranks_(ranks), timeout_(rendezvous_timeout_ms) {
  PICPRK_EXPECTS(store != nullptr);
  PICPRK_EXPECTS(ranks >= 1);
  PICPRK_EXPECTS(rendezvous_timeout_ms > 0);
}

void RecoveryCoordinator::attach(comm::WorldState* state) {
  std::scoped_lock lock(mutex_);
  state_ = state;
}

void RecoveryCoordinator::begin_run() {
  std::scoped_lock lock(mutex_);
  arrived_ = 0;
  restore_step_.reset();
  failure_.clear();
}

void RecoveryCoordinator::declare_dead(int rank, std::uint32_t step) {
  {
    std::scoped_lock lock(mutex_);
    PICPRK_EXPECTS(state_ != nullptr);
    PICPRK_EXPECTS(rank >= 0 && rank < ranks_);
    (void)step;  // the restore step is decided by the checkpoint store
  }
  // Drop here, not in join()'s serial section: if the rendezvous later
  // times out and the run falls back to full rollback, the stale
  // primary of the dead rank must already be invalid so the rollback
  // restores from the buddy copy. CheckpointStore is mutex-protected.
  store_->drop_primary(rank);
  // Outside the lock: wakes every blocked rank, whose next matching
  // failure makes it unwind into join().
  state_->raise_interrupt();
}

std::uint32_t RecoveryCoordinator::join(comm::Comm& comm) {
  std::unique_lock<std::mutex> lock(mutex_);
  PICPRK_EXPECTS(state_ != nullptr);
  const std::uint64_t round = round_;
  if (++arrived_ == ranks_) {
    // Serial repair section, run by the last arriver while every other
    // rank waits inside join(): no rank thread can send, so the drain
    // below observes the complete residue of the aborted step. Flush
    // the transport FIRST — once its unacked queues are empty the pump
    // thread cannot re-push a retransmission behind the drain.
    if (state_->transport != nullptr) state_->transport->flush();
    for (auto& box : state_->boxes) drained_ += box->drain().size();
    restore_step_ = store_->consistent_step(ranks_);
    if (restore_step_) {
      failure_.clear();
      ++recoveries_;
    } else {
      failure_ =
          "localized recovery: no consistent checkpoint line survives the "
          "failure (a rank and its buddy may both have died)";
    }
    arrived_ = 0;
    ++round_;
    cv_.notify_all();
  } else {
    const auto deadline = std::chrono::steady_clock::now() + timeout_;
    while (round_ == round) {
      if (state_->abort.load(std::memory_order_acquire)) {
        --arrived_;
        throw comm::WorldAborted{};
      }
      if (std::chrono::steady_clock::now() >= deadline) {
        const int waiting = arrived_--;
        throw RecoveryFailed("localized recovery: rendezvous timed out after " +
                             std::to_string(timeout_.count()) + " ms with " +
                             std::to_string(waiting) + " of " +
                             std::to_string(ranks_) + " ranks arrived");
      }
      cv_.wait_for(lock, std::chrono::milliseconds(5));
    }
  }
  if (!restore_step_) throw RecoveryFailed(failure_);
  const std::uint32_t restore = *restore_step_;
  lock.unlock();
  // Per-thread realignment: collective tag streams restart from zero
  // (legal — the drain above emptied all in-flight traffic) and the
  // handled interrupt epoch stops raising RecvInterrupted.
  comm.reset_collective_sequences();
  comm.acknowledge_interrupt();
  return restore;
}

std::uint32_t RecoveryCoordinator::recoveries() const {
  std::scoped_lock lock(mutex_);
  return recoveries_;
}

std::uint64_t RecoveryCoordinator::drained_messages() const {
  std::scoped_lock lock(mutex_);
  return drained_;
}

}  // namespace picprk::ft
