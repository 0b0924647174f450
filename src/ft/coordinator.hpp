// Recovery coordinator for localized rank-failure recovery — the middle
// rung of the resilience ladder (docs/RESILIENCE.md):
//
//   retry (comm::ReliableTransport)  →  localized recovery (this)
//                                    →  full-world rollback (par layer).
//
// Protocol: the victim rank catches its own RankKilled and calls
// declare_dead(), which records the dead rank and interrupts every
// blocked survivor (their blocking calls throw comm::RecvInterrupted).
// The victim's thread then continues as its own promoted spare: the
// pre-failure state is treated as lost and is rebuilt from the buddy
// checkpoint, but the execution resource stays in the world. Every rank
// — victim and survivors alike — then calls join(). The last arriver
// runs the serial repair section while the others wait:
//
//   1. flush the reliable transport (in-flight retransmit state of the
//      aborted step is garbage);
//   2. drain every mailbox (the replay regenerates those messages);
//   3. drop the dead ranks' primary checkpoints — their memory is gone,
//      only copies held by their buddies survive;
//   4. compute the newest consistent restore step across all slots.
//
// After the rendezvous each thread realigns its collective tag streams
// and acknowledges the interrupt epoch, restores from the checkpoint
// store and replays. With checkpoint cadence 1 (forced by the par layer
// in localized mode) the replay is at most one step: the top-of-step
// snapshot precedes the kill's begin_step, and the full-mesh count
// round of the particle exchange stops every survivor inside the
// victim's failure step.
//
// If the rendezvous times out or no consistent checkpoint line survives
// (e.g. a rank and its buddy both died), join() throws RecoveryFailed:
// the typed signal to fall back to the full-world rollback rung.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace picprk::comm {
class Comm;
struct WorldState;
}  // namespace picprk::comm

namespace picprk::ft {

class CheckpointStore;

/// Thrown out of RecoveryCoordinator::join when localized recovery
/// cannot proceed; the caller falls back to full-world rollback.
class RecoveryFailed : public std::runtime_error {
 public:
  explicit RecoveryFailed(const std::string& what) : std::runtime_error(what) {}
};

class RecoveryCoordinator {
 public:
  /// `store` must outlive the coordinator. `ranks` is the world size;
  /// the rendezvous completes only when all of them join.
  RecoveryCoordinator(CheckpointStore* store, int ranks,
                      int rendezvous_timeout_ms = 10000);

  RecoveryCoordinator(const RecoveryCoordinator&) = delete;
  RecoveryCoordinator& operator=(const RecoveryCoordinator&) = delete;

  /// Attaches the world whose mailboxes / transport / interrupt epoch
  /// the repair section manipulates. Call before World::run.
  void attach(comm::WorldState* state);

  /// Resets per-run rendezvous state. Call before each World::run (a
  /// rollback retry constructs fresh Comms but reuses the coordinator).
  void begin_run();

  /// Victim side: records `rank` as dead at `step` and interrupts every
  /// blocked rank. The caller then joins the rendezvous as its own
  /// spare.
  void declare_dead(int rank, std::uint32_t step);

  /// Rendezvous of all ranks; returns the step every rank must restore
  /// to. Throws RecoveryFailed when localized recovery cannot proceed
  /// and comm::WorldAborted when the world dies while waiting. On
  /// success the comm's collective sequences are realigned and the
  /// interrupt epoch acknowledged before returning.
  std::uint32_t join(comm::Comm& comm);

  /// Completed localized recoveries.
  std::uint32_t recoveries() const;

  /// Stale messages drained from mailboxes by the repair sections.
  std::uint64_t drained_messages() const;

 private:
  CheckpointStore* store_;
  comm::WorldState* state_ = nullptr;
  const int ranks_;
  const std::chrono::milliseconds timeout_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  /// Completed-rendezvous counter; waiters block until it advances.
  std::uint64_t round_ = 0;
  int arrived_ = 0;
  /// Outcome of the round that just completed, read by every waiter.
  std::optional<std::uint32_t> restore_step_;
  std::string failure_;
  std::uint32_t recoveries_ = 0;
  std::uint64_t drained_ = 0;
};

}  // namespace picprk::ft
