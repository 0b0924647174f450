// Per-rank mailbox with MPI-style envelope matching: a recv with
// (source|ANY, tag|ANY) takes the *earliest* matching message, which
// gives the per-(source,tag) FIFO ordering MPI guarantees.
//
// Blocking waits are watchdog-aware: they honour the world abort flag,
// an optional per-call deadline (a hang becomes a typed CommTimeout
// instead of a stuck process), and publish the caller's blocked state to
// a registry the world-level deadlock detector reads.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "comm/message.hpp"
#include "util/thread_annotations.hpp"

namespace picprk::comm {

/// Thrown out of blocking operations when the world has been aborted
/// (another rank threw). Prevents deadlocks in tests and drivers.
class WorldAborted : public std::runtime_error {
 public:
  WorldAborted() : std::runtime_error("threadcomm world aborted by another rank") {}
};

/// Thrown out of blocking operations when the recovery coordinator
/// raises the world's interrupt epoch: every surviving rank unwinds to
/// its driver's recovery handler and rendezvouses there. Messages that
/// are already deliverable are still delivered first (the interrupt is
/// only checked once matching fails), so e.g. a buddy-checkpoint copy
/// pushed before the raise is never lost to the interrupt.
class RecvInterrupted : public std::runtime_error {
 public:
  RecvInterrupted()
      : std::runtime_error("threadcomm recv interrupted for localized recovery") {}
};

/// Thrown out of a blocking recv/probe when the configured deadline
/// expires before a matching message arrives — the watchdog's per-call
/// conversion of a hang into a typed, catchable error.
class CommTimeout : public std::runtime_error {
 public:
  CommTimeout(const std::string& what, int source, int tag)
      : std::runtime_error(what), source_(source), tag_(tag) {}

  /// Requested source (world rank, or kAnySource).
  int source() const noexcept { return source_; }
  int tag() const noexcept { return tag_; }

 private:
  int source_;
  int tag_;
};

/// One rank's entry in the world's blocked-state registry. `generation`
/// is bumped when a rank enters (odd) and leaves (even) a blocking wait;
/// the deadlock detector declares a deadlock when every live rank's
/// generation is odd and unchanged across a full detection window.
struct BlockedSlot {
  std::atomic<std::uint64_t> generation{0};
  /// 0 = running, 1 = blocked in recv, 2 = blocked in probe,
  /// -1 = finished (returned from rank_main).
  std::atomic<int> kind{0};
  std::atomic<int> source{0};
  std::atomic<int> tag{0};
};

class ReliableTransport;

class Mailbox {
 public:
  /// Parameters of a blocking wait, bundled so call sites stay stable as
  /// watchdog features grow.
  struct WaitParams {
    const std::atomic<bool>* abort = nullptr;
    /// Zero = wait forever (legacy behaviour).
    std::chrono::milliseconds deadline{0};
    /// Registry entry of the waiting rank (may be null).
    BlockedSlot* slot = nullptr;
    /// Reliable transport of the world (null = off). A deadline expiry
    /// is deferred — the deadline re-arms — while the transport still
    /// has retransmit budget for traffic addressed to `self`, so
    /// CommTimeout only fires once in-band retries are exhausted.
    const ReliableTransport* transport = nullptr;
    /// World rank of the waiting thread (for retry_pending_to).
    int self = -1;
    /// Recovery-interrupt epoch of the world (null = never interrupts).
    /// When it differs from `interrupt_baseline`, blocked calls throw
    /// RecvInterrupted *after* failing to match — deliverable messages
    /// win over the interrupt.
    const std::atomic<std::uint64_t>* interrupt = nullptr;
    std::uint64_t interrupt_baseline = 0;
  };

  /// Enqueues a message and wakes matching receivers.
  void push(Message msg);

  /// Blocks until a message matching (source, tag) is available and
  /// removes it. Throws WorldAborted if the abort flag fires and
  /// CommTimeout if the deadline expires first.
  Message pop(int source, int tag, const WaitParams& wait);

  /// Nonblocking pop: removes and returns the earliest message matching
  /// (source, tag) if one is queued right now, else nullopt.
  /// Never waits — the async engine's try-drain progress primitive.
  std::optional<Message> try_pop(int source, int tag);

  /// Non-destructive match test; returns envelope info of the earliest
  /// matching message, or nullopt if none is queued right now.
  std::optional<Status> probe(int source, int tag) const;

  /// Blocking probe with the same abort/deadline semantics as pop.
  Status probe_wait(int source, int tag, const WaitParams& wait);

  /// Number of queued messages (test/diagnostic use).
  std::size_t queued() const;

  /// Removes and returns everything queued — used by World::run to clear
  /// residual messages after an aborted run instead of leaking them into
  /// the next one.
  std::vector<Message> drain();

  /// Wakes all waiters so they can observe the abort flag.
  void notify_abort();

 private:
  static bool matches(const Message& m, int source, int tag) {
    return (source == kAnySource || m.source == source) &&
           (tag == kAnyTag || m.tag == tag);
  }

  /// Removes and returns the earliest matching message, if any queued.
  std::optional<Message> take_match(int source, int tag) PICPRK_REQUIRES(mutex_);

  /// Envelope of the earliest matching message, without consuming it.
  std::optional<Status> find_match(int source, int tag) const PICPRK_REQUIRES(mutex_);

  mutable util::Mutex mutex_;
  util::CondVar cv_;
  std::deque<Message> queue_ PICPRK_GUARDED_BY(mutex_);
};

}  // namespace picprk::comm
