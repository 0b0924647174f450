#include "comm/mailbox.hpp"

#include <sstream>
#include <utility>

#include "comm/reliable.hpp"

namespace picprk::comm {

namespace {

/// True when the recovery coordinator has raised the interrupt epoch
/// past the caller's baseline.
bool interrupted(const Mailbox::WaitParams& wait) {
  return wait.interrupt != nullptr &&
         wait.interrupt->load(std::memory_order_acquire) != wait.interrupt_baseline;
}

/// True when the deadline expiry should be deferred: the reliable
/// transport still has in-budget retransmissions addressed to us, so
/// the awaited message may yet arrive in-band.
bool retries_in_flight(const Mailbox::WaitParams& wait) {
  return wait.transport != nullptr && wait.self >= 0 &&
         wait.transport->retry_pending_to(wait.self);
}

/// RAII publisher of a rank's blocked state. Constructed just before the
/// first cv wait (the fast path never touches the registry); the odd
/// generation marks the rank blocked until destruction restores even.
class BlockScope {
 public:
  BlockScope(BlockedSlot* slot, int kind, int source, int tag) : slot_(slot) {
    if (!slot_) return;
    slot_->source.store(source, std::memory_order_relaxed);
    slot_->tag.store(tag, std::memory_order_relaxed);
    slot_->kind.store(kind, std::memory_order_relaxed);
    slot_->generation.fetch_add(1, std::memory_order_release);  // -> odd
  }

  ~BlockScope() {
    if (!slot_) return;
    slot_->kind.store(0, std::memory_order_relaxed);
    slot_->generation.fetch_add(1, std::memory_order_release);  // -> even
  }

  BlockScope(const BlockScope&) = delete;
  BlockScope& operator=(const BlockScope&) = delete;

 private:
  BlockedSlot* slot_;
};

[[noreturn]] void throw_timeout(const char* op, std::chrono::milliseconds deadline,
                                int source, int tag) {
  std::ostringstream os;
  os << "threadcomm " << op << " timed out after " << deadline.count() << " ms (source ";
  if (source == kAnySource) {
    os << "ANY";
  } else {
    os << source;
  }
  os << ", tag ";
  if (tag == kAnyTag) {
    os << "ANY";
  } else {
    os << tag;
  }
  os << ')';
  throw CommTimeout(os.str(), source, tag);
}

}  // namespace

std::optional<Message> Mailbox::take_match(int source, int tag) {
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (matches(*it, source, tag)) {
      Message msg = std::move(*it);
      queue_.erase(it);
      return msg;
    }
  }
  return std::nullopt;
}

std::optional<Status> Mailbox::find_match(int source, int tag) const {
  for (const auto& m : queue_) {
    if (matches(m, source, tag)) {
      return Status{m.source, m.tag, m.payload.size()};
    }
  }
  return std::nullopt;
}

void Mailbox::push(Message msg) {
  {
    util::LockGuard lock(mutex_);
    queue_.push_back(std::move(msg));
  }
  cv_.notify_all();
}

Message Mailbox::pop(int source, int tag, const WaitParams& wait) {
  util::LockGuard lock(mutex_);
  std::optional<BlockScope> blocked;
  auto deadline_at = std::chrono::steady_clock::now() + wait.deadline;
  for (;;) {
    if (auto msg = take_match(source, tag)) return std::move(*msg);
    if (wait.abort && wait.abort->load(std::memory_order_acquire)) throw WorldAborted{};
    if (interrupted(wait)) throw RecvInterrupted{};
    if (!blocked) blocked.emplace(wait.slot, 1, source, tag);
    if (wait.deadline.count() > 0) {
      if (cv_.wait_until(mutex_, deadline_at) == std::cv_status::timeout) {
        // Re-scan once: a matching push may have raced the timeout.
        if (auto msg = take_match(source, tag)) return std::move(*msg);
        if (wait.abort && wait.abort->load(std::memory_order_acquire))
          throw WorldAborted{};
        if (interrupted(wait)) throw RecvInterrupted{};
        if (retries_in_flight(wait)) {
          // The transport is still retrying traffic to us; re-arm the
          // deadline so the timeout only fires once the budget is gone.
          deadline_at = std::chrono::steady_clock::now() + wait.deadline;
          continue;
        }
        throw_timeout("recv", wait.deadline, source, tag);
      }
    } else {
      cv_.wait(mutex_);
    }
  }
}

std::optional<Message> Mailbox::try_pop(int source, int tag) {
  util::LockGuard lock(mutex_);
  return take_match(source, tag);
}

std::optional<Status> Mailbox::probe(int source, int tag) const {
  util::LockGuard lock(mutex_);
  return find_match(source, tag);
}

Status Mailbox::probe_wait(int source, int tag, const WaitParams& wait) {
  util::LockGuard lock(mutex_);
  std::optional<BlockScope> blocked;
  auto deadline_at = std::chrono::steady_clock::now() + wait.deadline;
  for (;;) {
    if (auto status = find_match(source, tag)) return *status;
    if (wait.abort && wait.abort->load(std::memory_order_acquire)) throw WorldAborted{};
    if (interrupted(wait)) throw RecvInterrupted{};
    if (!blocked) blocked.emplace(wait.slot, 2, source, tag);
    if (wait.deadline.count() > 0) {
      if (cv_.wait_until(mutex_, deadline_at) == std::cv_status::timeout) {
        if (auto status = find_match(source, tag)) return *status;
        if (wait.abort && wait.abort->load(std::memory_order_acquire))
          throw WorldAborted{};
        if (interrupted(wait)) throw RecvInterrupted{};
        if (retries_in_flight(wait)) {
          deadline_at = std::chrono::steady_clock::now() + wait.deadline;
          continue;
        }
        throw_timeout("probe", wait.deadline, source, tag);
      }
    } else {
      cv_.wait(mutex_);
    }
  }
}

std::size_t Mailbox::queued() const {
  util::LockGuard lock(mutex_);
  return queue_.size();
}

std::vector<Message> Mailbox::drain() {
  util::LockGuard lock(mutex_);
  std::vector<Message> out(std::make_move_iterator(queue_.begin()),
                           std::make_move_iterator(queue_.end()));
  queue_.clear();
  return out;
}

void Mailbox::notify_abort() { cv_.notify_all(); }

}  // namespace picprk::comm
