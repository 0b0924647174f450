// Comm: the communication API of threadcomm, the thread-backed
// message-passing runtime standing in for MPI (DESIGN.md §2).
//
// Semantics follow MPI where it matters for the PRK:
//  * sends are buffered (never block, like MPI_Bsend with enough buffer);
//  * receives block and match (source|ANY, tag|ANY) in FIFO order per
//    (source, tag);
//  * collectives must be called by every rank in the same order.
//
// Every Comm is the world communicator and rank() is the world rank: no
// implementation of the PRK needs a sub-communicator.
//
// All payloads are trivially-copyable element types moved by value between
// rank-private address spaces — there is no shared-state shortcut, so the
// drivers built on top are structurally identical to MPI codes.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <type_traits>
#include <vector>

#include "comm/world.hpp"
#include "util/assert.hpp"

namespace picprk::comm {

namespace detail {

/// Internal collective opcodes; encoded into negative tags.
enum class Op : int {
  Barrier = 0,
  Bcast,
  Reduce,
  Allreduce,
  Alltoall,
  Alltoallv,
  Count_,
};

inline constexpr int kNumOps = static_cast<int>(Op::Count_);
inline constexpr int kSeqMod = 1 << 16;

/// Internal tags are negative and never collide with user tags (>= 0).
inline int internal_tag(Op op, int seq) {
  return -(static_cast<int>(op) * kSeqMod + (seq % kSeqMod) + 1);
}

}  // namespace detail

/// Recycles message byte buffers between the receive and send sides of a
/// collective: payload vectors taken off the mailbox are `release`d here
/// and `acquire` hands them back as send staging, so steady-state
/// communication (stable message sizes, symmetric traffic) performs no
/// heap allocation. `allocations()` counts the acquires that had to grow
/// or create a buffer — the benchmark/test hook for the zero-allocation
/// claim.
///
/// Unsynchronized, deliberately: each rank (or VP) owns its pool, so the
/// hot path carries no lock. Ownership may pass between threads at a
/// barrier — a VP acquires in step() and releases in deliver(), which
/// the vpr runtime may run on different workers — but two calls must
/// never overlap. That is an enforced invariant, not a comment:
/// PICPRK_EXPENSIVE_CHECKS builds flag every acquire/release that starts
/// while another one on the same pool is still running.
class BufferPool {
 public:
  /// Returns a buffer of exactly `size` bytes, reusing pooled capacity
  /// when possible. Best-fit (smallest sufficient buffer): first-fit
  /// would let tiny requests (8-byte count messages) consume the large
  /// payload buffers and force a fresh payload allocation every step.
  std::vector<std::byte> acquire(std::size_t size) {
    const ExclusiveUse use(*this);
    std::size_t best = free_.size();
    for (std::size_t i = 0; i < free_.size(); ++i) {
      if (free_[i].capacity() < size) continue;
      if (best == free_.size() || free_[i].capacity() < free_[best].capacity()) best = i;
    }
    std::vector<std::byte> buf;
    if (best < free_.size()) {
      buf = std::move(free_[best]);
      free_.erase(free_.begin() + static_cast<std::ptrdiff_t>(best));
    } else {
      ++allocations_;
      if (!free_.empty()) {  // grow the smallest pooled buffer rather than leak it
        std::size_t smallest = 0;
        for (std::size_t i = 1; i < free_.size(); ++i) {
          if (free_[i].capacity() < free_[smallest].capacity()) smallest = i;
        }
        buf = std::move(free_[smallest]);
        free_.erase(free_.begin() + static_cast<std::ptrdiff_t>(smallest));
      }
      // Grow with 50% headroom so bounded step-to-step fluctuation in
      // message sizes settles after one growth instead of reallocating
      // every time a new maximum is seen.
      buf.reserve(size + size / 2);
    }
    buf.resize(size);
    return buf;
  }

  void release(std::vector<std::byte> buf) {
    const ExclusiveUse use(*this);
    if (buf.capacity() > 0) free_.push_back(std::move(buf));
  }

  /// Number of acquires that required a fresh heap allocation.
  std::uint64_t allocations() const { return allocations_; }

  /* picprk-lint: suppress(reach: test observer read by
     Alltoallv.BufferPoolMayChangeThreadsBetweenCalls) */
  std::size_t pooled() const { return free_.size(); }

 private:
#if defined(PICPRK_EXPENSIVE_CHECKS)
  // Scoped claim on the pool: trips when a second acquire/release runs
  // concurrently with this one (a real race), not when the pool merely
  // changed threads between calls.
  class ExclusiveUse {
   public:
    explicit ExclusiveUse(BufferPool& pool) : in_use_(pool.in_use_.flag) {
      PICPRK_ASSERT_MSG(!in_use_.exchange(true, std::memory_order_acquire),
                        "BufferPool used concurrently from two threads — a "
                        "pool has one owner at a time (one per rank or VP)");
    }
    ~ExclusiveUse() { in_use_.store(false, std::memory_order_release); }
    ExclusiveUse(const ExclusiveUse&) = delete;
    ExclusiveUse& operator=(const ExclusiveUse&) = delete;

   private:
    std::atomic<bool>& in_use_;
  };
  // The flag belongs to one pool object: a copy starts unclaimed.
  struct InUse {
    std::atomic<bool> flag{false};
    InUse() = default;
    InUse(const InUse&) {}
    InUse& operator=(const InUse&) { return *this; }
  };
  InUse in_use_;
#else
  struct ExclusiveUse {
    explicit ExclusiveUse(BufferPool&) {}
  };
#endif

  std::vector<std::vector<std::byte>> free_;
  std::uint64_t allocations_ = 0;
};

class Comm {
 public:
  /// Rank `rank` of the world communicator. Created by World::run.
  Comm(WorldState* state, int rank);

  Comm(const Comm&) = delete;
  Comm& operator=(const Comm&) = delete;
  Comm(Comm&&) = default;
  Comm& operator=(Comm&&) = default;

  /// This rank's index in the world.
  int rank() const { return rank_; }
  /// Number of ranks in the world.
  int size() const { return state_->size; }

  // ---------------------------------------------------------------- P2P

  /// Buffered send of a span of trivially-copyable elements.
  template <typename T>
  void send(std::span<const T> data, int dst, int tag) {
    static_assert(std::is_trivially_copyable_v<T>);
    PICPRK_EXPECTS(tag >= 0);
    send_bytes(as_bytes_copy(data), dst, tag);
  }

  template <typename T>
  void send(const std::vector<T>& data, int dst, int tag) {
    send(std::span<const T>(data), dst, tag);
  }

  /// Sends a single value.
  template <typename T>
  void send_value(const T& value, int dst, int tag) {
    send(std::span<const T>(&value, 1), dst, tag);
  }

  /// Zero-copy send: moves the caller's byte buffer straight into the
  /// destination mailbox instead of copying it (`as_bytes_copy`). The
  /// buffer must already hold the packed payload; receivers see an
  /// ordinary typed message.
  void send_buffer(std::vector<std::byte>&& bytes, int dst, int tag) {
    PICPRK_EXPECTS(tag >= 0);
    send_bytes(std::move(bytes), dst, tag);
  }

  /// Blocking receive; the message length determines the element count.
  template <typename T>
  std::vector<T> recv(int src, int tag, Status* status = nullptr) {
    static_assert(std::is_trivially_copyable_v<T>);
    Message msg = recv_bytes(src, tag);
    if (status) *status = Status{msg.source, msg.tag, msg.payload.size()};
    return from_bytes<T>(msg.payload);
  }

  /// Blocking receive into a caller-owned vector, reusing its capacity:
  /// the allocation-free counterpart of `recv` for per-step receives.
  /// Returns the number of elements received.
  template <typename T>
  std::size_t recv_into(std::vector<T>& out, int src, int tag, Status* status = nullptr) {
    static_assert(std::is_trivially_copyable_v<T>);
    Message msg = recv_bytes(src, tag);
    if (status) *status = Status{msg.source, msg.tag, msg.payload.size()};
    PICPRK_ASSERT_MSG(msg.payload.size() % sizeof(T) == 0,
                      "payload length not a multiple of element size");
    const std::size_t count = msg.payload.size() / sizeof(T);
    out.resize(count);
    if (count > 0) std::memcpy(out.data(), msg.payload.data(), msg.payload.size());
    return count;
  }

  /// Blocking receive of exactly one value.
  template <typename T>
  T recv_value(int src, int tag, Status* status = nullptr) {
    auto v = recv<T>(src, tag, status);
    PICPRK_ASSERT_MSG(v.size() == 1, "recv_value expected exactly one element");
    return v.front();
  }

  /// Blocking probe: waits for a matching envelope without consuming it.
  Status probe(int src, int tag);

  /// Non-blocking probe.
  std::optional<Status> iprobe(int src, int tag);

  /// Nonblocking receive: removes and returns the earliest matching
  /// payload if one is queued right now, else nullopt — the try-drain
  /// progress primitive of the async engine (par/async). Matching the
  /// blocking path, a deliverable message wins over a pending abort or
  /// recovery interrupt: those are only surfaced (as WorldAborted /
  /// RecvInterrupted) when no message matches.
  std::optional<std::vector<std::byte>> try_recv_buffer(int src, int tag,
                                                        Status* status = nullptr);

  /// Typed nonblocking receive; the message length determines the count.
  template <typename T>
  std::optional<std::vector<T>> try_recv(int src, int tag, Status* status = nullptr) {
    static_assert(std::is_trivially_copyable_v<T>);
    auto bytes = try_recv_buffer(src, tag, status);
    if (!bytes) return std::nullopt;
    return from_bytes<T>(*bytes);
  }

  /// Nonblocking receive of exactly one value.
  template <typename T>
  std::optional<T> try_recv_value(int src, int tag, Status* status = nullptr) {
    auto v = try_recv<T>(src, tag, status);
    if (!v) return std::nullopt;
    PICPRK_ASSERT_MSG(v->size() == 1, "try_recv_value expected exactly one element");
    return v->front();
  }

  /// True while the reliable transport still has retransmit budget for
  /// traffic addressed to this rank (always false on unreliable worlds).
  /// A try-drain loop polls this to defer its progress timeout exactly
  /// like a blocking recv defers its deadline.
  bool transport_retry_pending() const;

  // --------------------------------------------------------- collectives

  /// Dissemination barrier, O(log P) rounds.
  void barrier();

  /// Binomial-tree broadcast of a whole vector (count travels with data).
  template <typename T>
  void bcast(std::vector<T>& data, int root) {
    static_assert(std::is_trivially_copyable_v<T>);
    const int tag = next_tag(detail::Op::Bcast);
    const int vrank = (rank_ - root + size()) % size();
    int mask = 1;
    while (mask < size()) {
      if (vrank & mask) {
        Message msg = recv_bytes((vrank - mask + root) % size(), tag);
        data = from_bytes<T>(msg.payload);
        break;
      }
      mask <<= 1;
    }
    mask >>= 1;
    while (mask > 0) {
      if (vrank + mask < size()) {
        send_bytes(as_bytes_copy(std::span<const T>(data)),
                   (vrank + mask + root) % size(), tag);
      }
      mask >>= 1;
    }
  }

  /// Element-wise binomial-tree reduction to `root` with a commutative
  /// combiner `op(T,T) -> T`. Non-root ranks return an empty vector.
  template <typename T, typename BinaryOp>
  std::vector<T> reduce(std::span<const T> data, BinaryOp op, int root) {
    static_assert(std::is_trivially_copyable_v<T>);
    const int tag = next_tag(detail::Op::Reduce);
    std::vector<T> acc(data.begin(), data.end());
    const int vrank = (rank_ - root + size()) % size();
    int mask = 1;
    while (mask < size()) {
      if ((vrank & mask) == 0) {
        const int vsrc = vrank | mask;
        if (vsrc < size()) {
          Message msg = recv_bytes((vsrc + root) % size(), tag);
          auto partial = from_bytes<T>(msg.payload);
          PICPRK_ASSERT_MSG(partial.size() == acc.size(),
                            "reduce: mismatched vector lengths across ranks");
          for (std::size_t i = 0; i < acc.size(); ++i)
            acc[i] = op(acc[i], partial[i]);
        }
      } else {
        send_bytes(as_bytes_copy(std::span<const T>(acc)),
                   ((vrank - mask) + root) % size(), tag);
        break;
      }
      mask <<= 1;
    }
    if (rank_ != root) acc.clear();
    return acc;
  }

  /// Reduce-to-0 followed by broadcast; every rank gets the result.
  template <typename T, typename BinaryOp>
  std::vector<T> allreduce(std::span<const T> data, BinaryOp op) {
    auto result = reduce(data, op, 0);
    next_tag(detail::Op::Allreduce);  // keep sequence aligned across ranks
    bcast(result, 0);
    return result;
  }

  template <typename T, typename BinaryOp>
  T allreduce_value(const T& value, BinaryOp op) {
    auto v = allreduce(std::span<const T>(&value, 1), op);
    return v.front();
  }

  /// Full variable-size exchange (MPI_Alltoallv): `outgoing[r]` goes to
  /// rank r; returns `incoming[r]` received from rank r. Empty vectors
  /// are exchanged too, so matching is deterministic.
  template <typename T>
  std::vector<std::vector<T>> alltoall(const std::vector<std::vector<T>>& outgoing) {
    static_assert(std::is_trivially_copyable_v<T>);
    PICPRK_EXPECTS(static_cast<int>(outgoing.size()) == size());
    const int tag = next_tag(detail::Op::Alltoall);
    // Pairwise-shifted send order spreads load; buffered sends cannot block.
    for (int shift = 0; shift < size(); ++shift) {
      const int dst = (rank_ + shift) % size();
      const auto& out = outgoing[static_cast<std::size_t>(dst)];
      send_bytes(as_bytes_copy(std::span<const T>(out)), dst, tag);
    }
    std::vector<std::vector<T>> incoming(static_cast<std::size_t>(size()));
    for (int i = 0; i < size(); ++i) {
      Message msg = recv_bytes(kAnySource, tag);
      auto& slot = incoming[static_cast<std::size_t>(msg.source)];
      PICPRK_ASSERT_MSG(slot.empty() || msg.payload.empty(),
                        "alltoall: duplicate message from a source");
      slot = from_bytes<T>(msg.payload);
    }
    return incoming;
  }

  /// Flat-buffer variable alltoall (MPI_Alltoallv; the hot-path
  /// counterpart of `alltoall`'s vector-of-vectors): `send_data` holds
  /// the payload packed in destination-rank order, `send_counts[r]`
  /// elements for rank r. On return `recv_data` holds the received
  /// elements grouped by source rank in ascending order (this rank's own
  /// `send_counts[rank()]` slice is copied locally into position
  /// `rank()`), and `recv_counts[r]` is the element count from rank r.
  ///
  /// Wire protocol: one fixed 8-byte count message per peer, then one
  /// packed payload message per peer with a non-zero count — empty peers
  /// cost a count envelope but no payload, and payloads are moved (not
  /// copied) into the mailbox. Buffers are acquired from and released to
  /// `pool` when given, so steady-state calls with stable message sizes
  /// perform no heap allocation on this thread.
  template <typename T>
  void alltoallv(std::span<const T> send_data, std::span<const std::uint64_t> send_counts,
                 std::vector<T>& recv_data, std::vector<std::uint64_t>& recv_counts,
                 BufferPool* pool = nullptr) {
    static_assert(std::is_trivially_copyable_v<T>);
    const int p = size();
    PICPRK_EXPECTS(static_cast<int>(send_counts.size()) == p);
    std::uint64_t total_out = 0;
    for (const std::uint64_t c : send_counts) total_out += c;
    PICPRK_EXPECTS(send_data.size() == total_out);
    const int tag = next_tag(detail::Op::Alltoallv);

    // Round 1: per-peer element counts. Pairwise-shifted send order
    // spreads mailbox pressure; buffered sends cannot block.
    for (int shift = 1; shift < p; ++shift) {
      const int dst = (rank_ + shift) % p;
      std::vector<std::byte> buf = pool ? pool->acquire(sizeof(std::uint64_t))
                                        : std::vector<std::byte>(sizeof(std::uint64_t));
      const std::uint64_t count = send_counts[static_cast<std::size_t>(dst)];
      std::memcpy(buf.data(), &count, sizeof count);
      send_bytes(std::move(buf), dst, tag);
    }
    recv_counts.assign(static_cast<std::size_t>(p), 0);
    recv_counts[static_cast<std::size_t>(rank_)] =
        send_counts[static_cast<std::size_t>(rank_)];
    for (int shift = 1; shift < p; ++shift) {
      const int src = (rank_ - shift + p) % p;
      Message msg = recv_bytes(src, tag);
      PICPRK_ASSERT_MSG(msg.payload.size() == sizeof(std::uint64_t),
                        "alltoallv: malformed count message");
      std::memcpy(&recv_counts[static_cast<std::size_t>(src)], msg.payload.data(),
                  sizeof(std::uint64_t));
      if (pool) pool->release(std::move(msg.payload));
    }

    // Round 2: payloads, skipping empty peers. Per-(source, tag) FIFO
    // matching guarantees each peer's count message was consumed before
    // its payload even though both share the tag.
    for (int shift = 1; shift < p; ++shift) {
      const int dst = (rank_ + shift) % p;
      const std::uint64_t count = send_counts[static_cast<std::size_t>(dst)];
      if (count == 0) continue;
      std::size_t offset = 0;  // O(P) per peer beats an O(P) scratch allocation
      for (int r = 0; r < dst; ++r) offset += send_counts[static_cast<std::size_t>(r)];
      const std::size_t bytes = static_cast<std::size_t>(count) * sizeof(T);
      std::vector<std::byte> buf =
          pool ? pool->acquire(bytes) : std::vector<std::byte>(bytes);
      std::memcpy(buf.data(), send_data.data() + offset, bytes);
      send_bytes(std::move(buf), dst, tag);
    }

    // Deterministic reassembly: sources in ascending rank order, so the
    // result layout is independent of message arrival order.
    std::uint64_t total_in = 0;
    for (const std::uint64_t c : recv_counts) total_in += c;
    recv_data.resize(static_cast<std::size_t>(total_in));
    std::size_t base = 0;
    for (int src = 0; src < p; ++src) {
      const std::uint64_t count = recv_counts[static_cast<std::size_t>(src)];
      if (count == 0) continue;
      const std::size_t bytes = static_cast<std::size_t>(count) * sizeof(T);
      if (src == rank_) {
        std::size_t offset = 0;
        for (int r = 0; r < rank_; ++r) offset += send_counts[static_cast<std::size_t>(r)];
        std::memcpy(recv_data.data() + base, send_data.data() + offset, bytes);
      } else {
        Message msg = recv_bytes(src, tag);
        PICPRK_ASSERT_MSG(msg.payload.size() == bytes,
                          "alltoallv: payload size disagrees with its announced count");
        std::memcpy(recv_data.data() + base, msg.payload.data(), bytes);
        if (pool) pool->release(std::move(msg.payload));
      }
      base += static_cast<std::size_t>(count);
    }
  }

  /// The world abort flag — lets long-running non-comm code (e.g. an
  /// injected slow-rank stall) observe a shutdown and bail out.
  const std::atomic<bool>& abort_flag() const { return state_->abort; }

  // ------------------------------------------------- localized recovery

  /// Adopts the current interrupt epoch: blocking calls stop throwing
  /// RecvInterrupted for the recovery event that has just been handled.
  /// Called by the recovery coordinator after the rendezvous.
  void acknowledge_interrupt() {
    interrupt_seen_ = state_->interrupt_epoch.load(std::memory_order_acquire);
  }

  /// Restarts the internal collective tag streams from zero. Only legal
  /// when all in-flight traffic has been drained (the coordinator's
  /// serial section does exactly that); afterwards every rank resumes
  /// with aligned sequence numbers regardless of how far its collective
  /// schedule had advanced before the failure.
  void reset_collective_sequences() { seq_.fill(0); }

 private:
  template <typename T>
  static std::vector<std::byte> as_bytes_copy(std::span<const T> data) {
    std::vector<std::byte> bytes(data.size_bytes());
    if (!bytes.empty()) std::memcpy(bytes.data(), data.data(), bytes.size());
    return bytes;
  }

  template <typename T>
  static std::vector<T> from_bytes(const std::vector<std::byte>& bytes) {
    PICPRK_ASSERT_MSG(bytes.size() % sizeof(T) == 0,
                      "payload length not a multiple of element size");
    std::vector<T> out(bytes.size() / sizeof(T));
    if (!out.empty()) std::memcpy(out.data(), bytes.data(), bytes.size());
    return out;
  }

  int next_tag(detail::Op op) {
    auto& seq = seq_[static_cast<std::size_t>(op)];
    return detail::internal_tag(op, seq++);
  }

  void send_bytes(std::vector<std::byte> bytes, int dst, int tag);
  Message recv_bytes(int src, int tag);

  /// World wait params with this Comm's interrupt baseline filled in.
  Mailbox::WaitParams wait_params() const;

  WorldState* state_;
  int rank_;
  std::array<int, detail::kNumOps> seq_{};
  /// Last interrupt epoch this rank acknowledged (see mailbox.hpp).
  std::uint64_t interrupt_seen_ = 0;
};

}  // namespace picprk::comm
