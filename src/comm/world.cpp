#include "comm/world.hpp"

#include <algorithm>
#include <exception>
#include <sstream>
#include <thread>

#include "comm/comm.hpp"
#include "util/assert.hpp"
#include "util/first_error.hpp"
#include "util/log.hpp"

namespace picprk::comm {

namespace {

/// Human-readable blocked-location line for one registry slot.
void describe_slot(std::ostringstream& os, int rank, const BlockedSlot& slot) {
  const int kind = slot.kind.load(std::memory_order_relaxed);
  os << "  rank " << rank << ": ";
  if (kind == -1) {
    os << "finished";
  } else if (kind == 0) {
    os << "running (not blocked)";
  } else {
    os << "blocked in " << (kind == 1 ? "recv" : "probe") << "(source=";
    const int src = slot.source.load(std::memory_order_relaxed);
    if (src == kAnySource) {
      os << "ANY";
    } else {
      os << src;
    }
    os << ", tag=";
    const int tag = slot.tag.load(std::memory_order_relaxed);
    if (tag == kAnyTag) {
      os << "ANY";
    } else {
      os << tag;
    }
    os << ')';
  }
  os << '\n';
}

}  // namespace

WorldState::WorldState(int size_in, const WorldOptions& options_in)
    : size(size_in), options(options_in), blocked(static_cast<std::size_t>(size_in)) {
  boxes.reserve(static_cast<std::size_t>(size));
  for (int i = 0; i < size; ++i) boxes.push_back(std::make_unique<Mailbox>());
  if (options.reliable.enabled) {
    transport = std::make_unique<ReliableTransport>(size, options.reliable, &boxes,
                                                    &bytes_sent, &messages_sent);
  }
}

void WorldState::signal_abort() {
  abort.store(true, std::memory_order_release);
  for (auto& box : boxes) box->notify_abort();
}

void WorldState::raise_interrupt() {
  interrupt_epoch.fetch_add(1, std::memory_order_acq_rel);
  for (auto& box : boxes) box->notify_abort();
}

World::World(int size) : World(size, WorldOptions{}) {}

World::World(int size, const WorldOptions& options) : size_(size) {
  PICPRK_EXPECTS(size >= 1);
  PICPRK_EXPECTS(options.timeout_ms >= 0);
  PICPRK_EXPECTS(options.deadlock_ms >= 0);
  state_ = std::make_shared<WorldState>(size, options);
}

void World::run(const std::function<void(Comm&)>& rank_main) {
  // Mailboxes must be empty between runs: a correct program consumes
  // everything it is sent, and leftovers would corrupt message matching
  // in this run. (After an abort the previous run() already drained.)
  if (state_->options.check_clean_mailboxes) {
    for (int r = 0; r < size_; ++r) {
      const std::size_t queued = state_->boxes[static_cast<std::size_t>(r)]->queued();
      PICPRK_ASSERT_MSG(queued == 0,
                        "World::run entered with " + std::to_string(queued) +
                            " undelivered message(s) in rank " + std::to_string(r) +
                            "'s mailbox — the previous run leaked messages");
    }
  }

  state_->abort.store(false, std::memory_order_release);
  for (auto& slot : state_->blocked) slot.kind.store(0, std::memory_order_relaxed);

  util::FirstError first_error;
  auto record_error = [&](std::exception_ptr error) {
    first_error.record(std::move(error));
    state_->signal_abort();
  };

  // Deadlock detector: fires when every live rank stays blocked with no
  // mailbox progress (generations unchanged) for a full window.
  std::atomic<bool> stop_watchdog{false};
  std::thread watchdog;
  if (state_->options.deadlock_ms > 0) {
    watchdog = std::thread([this, &stop_watchdog, &record_error] {
      const auto window = std::chrono::milliseconds(state_->options.deadlock_ms);
      const auto poll = std::clamp<std::chrono::milliseconds>(
          window / 8, std::chrono::milliseconds(1), std::chrono::milliseconds(50));
      std::vector<std::uint64_t> last_gens(static_cast<std::size_t>(size_), 0);
      bool candidate = false;
      auto candidate_since = std::chrono::steady_clock::now();
      while (!stop_watchdog.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(poll);
        std::vector<std::uint64_t> gens(static_cast<std::size_t>(size_));
        bool any_live = false;
        bool all_blocked = true;
        for (int r = 0; r < size_; ++r) {
          const auto& slot = state_->blocked[static_cast<std::size_t>(r)];
          gens[static_cast<std::size_t>(r)] =
              slot.generation.load(std::memory_order_acquire);
          if (slot.kind.load(std::memory_order_relaxed) == -1) continue;
          any_live = true;
          if (gens[static_cast<std::size_t>(r)] % 2 == 0) all_blocked = false;
        }
        if (!any_live || !all_blocked) {
          candidate = false;
          continue;
        }
        if (!candidate || gens != last_gens) {
          last_gens = gens;
          candidate = true;
          candidate_since = std::chrono::steady_clock::now();
          continue;
        }
        if (std::chrono::steady_clock::now() - candidate_since >= window) {
          std::ostringstream os;
          os << "threadcomm deadlock: every live rank has been blocked for "
             << state_->options.deadlock_ms << " ms with no progress\n";
          for (int r = 0; r < size_; ++r) {
            describe_slot(os, r, state_->blocked[static_cast<std::size_t>(r)]);
          }
          record_error(std::make_exception_ptr(DeadlockDetected(os.str())));
          return;
        }
      }
    });
  }

  // Retransmit pump of the reliable transport: periodically retires
  // acknowledged copies and resends those past their backoff deadline.
  // Same lifetime pattern as the watchdog; stopped after the rank
  // threads join so a late retransmission cannot race the drain below.
  std::atomic<bool> stop_pump{false};
  std::thread pump;
  if (state_->transport != nullptr) {
    state_->transport->flush();  // no stale in-flight state from a previous run
    pump = std::thread([this, &stop_pump] {
      const auto poll = std::clamp<std::chrono::milliseconds>(
          std::chrono::milliseconds(state_->options.reliable.rto_ms) / 4,
          std::chrono::milliseconds(1), std::chrono::milliseconds(5));
      while (!stop_pump.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(poll);
        state_->transport->pump_once();
      }
    });
  }

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(size_));
  for (int r = 0; r < size_; ++r) {
    threads.emplace_back([this, r, &rank_main, &record_error] {
      try {
        Comm comm(state_.get(), r);
        rank_main(comm);
      } catch (...) {
        record_error(std::current_exception());
      }
      // Finished ranks (clean or dead) are excluded from deadlock
      // detection and drop out of collective blocking semantics.
      state_->blocked[static_cast<std::size_t>(r)].kind.store(
          -1, std::memory_order_relaxed);
    });
  }
  for (auto& t : threads) t.join();
  stop_watchdog.store(true, std::memory_order_release);
  if (watchdog.joinable()) watchdog.join();
  stop_pump.store(true, std::memory_order_release);
  if (pump.joinable()) pump.join();

  // After an aborted run the mailboxes may hold messages whose receivers
  // died mid-protocol. Drain and report them so the next run() starts
  // from a clean world instead of inheriting stale envelopes. Copies the
  // transport layer manufactured — injected duplicates a dedup window
  // would have swallowed, and retransmissions — are tallied separately:
  // they are healing debris, not application leaks.
  residual_messages_ = 0;
  residual_duplicates_ = 0;
  if (std::exception_ptr error = first_error.take()) {
    std::ostringstream os;
    for (int r = 0; r < size_; ++r) {
      const auto residue = state_->boxes[static_cast<std::size_t>(r)]->drain();
      std::uint64_t leaked = 0;
      for (const Message& msg : residue) {
        if ((msg.flags & (kFlagInjectedDup | kFlagRetransmit)) != 0) {
          ++residual_duplicates_;
        } else {
          ++leaked;
        }
      }
      if (leaked == 0) continue;
      if (residual_messages_ > 0) os << ", ";
      os << leaked << " to rank " << r;
      residual_messages_ += leaked;
    }
    if (state_->transport != nullptr) state_->transport->flush();
    if (residual_messages_ > 0 || residual_duplicates_ > 0) {
      PICPRK_WARN("threadcomm: drained " << residual_messages_
                                         << " residual message(s) after aborted run ("
                                         << os.str() << "; " << residual_duplicates_
                                         << " transport duplicate(s) excluded)");
    }
    std::rethrow_exception(error);
  }
}

std::uint64_t World::bytes_sent() const {
  return state_->bytes_sent.load(std::memory_order_relaxed);
}

std::uint64_t World::messages_sent() const {
  return state_->messages_sent.load(std::memory_order_relaxed);
}

TransportStats World::transport_stats() const {
  return state_->transport != nullptr ? state_->transport->stats() : TransportStats{};
}

}  // namespace picprk::comm
