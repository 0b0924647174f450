// World: owns the per-rank mailboxes and spawns one thread per rank.
// This is the process-launcher half of threadcomm; Comm (comm.hpp) is the
// communication API handed to each rank's main function.
//
// Robustness features (all off by default, enabled via WorldOptions):
//  * per-call deadlines on blocking recv/probe (CommTimeout instead of a
//    hang);
//  * a world-level deadlock detector that notices when every live rank
//    is blocked with no progress and aborts with a per-rank blocked-
//    location dump (DeadlockDetected);
//  * a fault-injection hook on every message send (src/ft implements it).
// Independent of options, run() verifies mailboxes are empty between
// invocations and drains + reports residual messages after an aborted
// run instead of leaking them into the next one.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "comm/fault_hook.hpp"
#include "comm/mailbox.hpp"
#include "comm/reliable.hpp"

namespace picprk::comm {

class Comm;

/// Thrown (from World::run) when the deadlock detector fires. what()
/// carries the per-rank blocked-location dump.
class DeadlockDetected : public std::runtime_error {
 public:
  explicit DeadlockDetected(const std::string& report) : std::runtime_error(report) {}
};

/// Knobs of the resilience layer; defaults preserve legacy behaviour.
struct WorldOptions {
  /// Per-call deadline for blocking recv/probe in ms (0 = wait forever).
  int timeout_ms = 0;
  /// Deadlock-detection window in ms (0 = detector off): if every live
  /// rank stays blocked with no mailbox progress for this long, the
  /// world aborts with a DeadlockDetected carrying each rank's location.
  int deadlock_ms = 0;
  /// Message-level fault injector (not owned; must outlive the World).
  FaultHook* fault_hook = nullptr;
  /// Verify mailboxes are empty when run() starts (a correct program
  /// consumes everything it is sent; leftovers are a bug).
  bool check_clean_mailboxes = true;
  /// Reliable in-band delivery (seq/ack/retransmit); off by default.
  ReliabilityOptions reliable;
};

/// Shared runtime state; lives for the duration of World::run.
struct WorldState {
  WorldState(int size, const WorldOptions& options);

  int size;
  WorldOptions options;
  std::vector<std::unique_ptr<Mailbox>> boxes;
  /// Per-rank blocked-state registry read by the deadlock detector.
  std::vector<BlockedSlot> blocked;
  /// Abort flag set when any rank throws; blocking calls bail out.
  std::atomic<bool> abort{false};
  /// Total payload bytes pushed through mailboxes (diagnostics).
  std::atomic<std::uint64_t> bytes_sent{0};
  std::atomic<std::uint64_t> messages_sent{0};
  /// Reliable transport (null when options.reliable.enabled is false).
  std::unique_ptr<ReliableTransport> transport;
  /// Localized-recovery interrupt epoch; bumped by raise_interrupt().
  /// Blocking calls compare it against their caller's baseline and
  /// throw RecvInterrupted on mismatch.
  std::atomic<std::uint64_t> interrupt_epoch{0};

  void signal_abort();

  /// Bumps the interrupt epoch and wakes every blocked rank so they can
  /// unwind into their driver's localized-recovery handler.
  void raise_interrupt();

  /// WaitParams for a blocking call by `world_rank`. The caller (Comm)
  /// fills interrupt_baseline with its last acknowledged epoch.
  Mailbox::WaitParams wait_params(int world_rank) {
    Mailbox::WaitParams wp;
    wp.abort = &abort;
    wp.deadline = std::chrono::milliseconds(options.timeout_ms);
    wp.slot = &blocked[static_cast<std::size_t>(world_rank)];
    wp.transport = transport.get();
    wp.self = world_rank;
    wp.interrupt = &interrupt_epoch;
    return wp;
  }
};

/// Runs `rank_main(comm)` on `size` ranks, each on its own thread, with a
/// world communicator spanning all ranks. Blocks until every rank
/// returns. If any rank throws, the world aborts (other ranks' blocking
/// calls throw WorldAborted) and the first exception is rethrown to the
/// caller.
class World {
 public:
  explicit World(int size);
  World(int size, const WorldOptions& options);

  void run(const std::function<void(Comm&)>& rank_main);

  int size() const { return size_; }
  const WorldOptions& options() const { return state_->options; }

  /// Diagnostics accumulated over all run() invocations of this World.
  std::uint64_t bytes_sent() const;
  std::uint64_t messages_sent() const;

  /// Residual messages drained after the most recent aborted run
  /// (0 after a clean run). Transport-manufactured copies (injected
  /// duplicates, retransmissions) are excluded: a dedup-window hit left
  /// in a mailbox is healing debris, not a leak.
  std::uint64_t residual_messages() const { return residual_messages_; }

  /// Transport copies excluded from the residual tally of the most
  /// recent aborted run.
  std::uint64_t residual_duplicates() const { return residual_duplicates_; }

  /// Reliable-transport tallies (all zero when reliability is off).
  TransportStats transport_stats() const;

  /// Shared runtime state, for the recovery coordinator (src/ft): the
  /// drain/flush/interrupt hooks of localized recovery live there.
  WorldState& state() { return *state_; }

 private:
  int size_;
  std::shared_ptr<WorldState> state_;
  std::uint64_t residual_messages_ = 0;
  std::uint64_t residual_duplicates_ = 0;
};

}  // namespace picprk::comm
