#include "comm/comm.hpp"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <thread>
#include <tuple>

#include "comm/reliable.hpp"

namespace picprk::comm {

bool Comm::transport_retry_pending() const {
  return state_->transport != nullptr && state_->transport->retry_pending_to(world_rank_);
}

Comm::Comm(WorldState* state, int world_rank)
    : state_(state), world_rank_(world_rank), context_(0), rank_(world_rank) {
  PICPRK_EXPECTS(state != nullptr);
  PICPRK_EXPECTS(world_rank >= 0 && world_rank < state->size);
  group_.resize(static_cast<std::size_t>(state->size));
  std::iota(group_.begin(), group_.end(), 0);
  interrupt_seen_ = state_->interrupt_epoch.load(std::memory_order_acquire);
}

Comm::Comm(WorldState* state, int world_rank, int context, std::vector<int> group)
    : state_(state), world_rank_(world_rank), context_(context), group_(std::move(group)) {
  auto it = std::find(group_.begin(), group_.end(), world_rank_);
  PICPRK_ASSERT_MSG(it != group_.end(), "rank not a member of its own communicator");
  rank_ = static_cast<int>(it - group_.begin());
  interrupt_seen_ = state_->interrupt_epoch.load(std::memory_order_acquire);
}

int Comm::group_index(int wrank) const {
  auto it = std::find(group_.begin(), group_.end(), wrank);
  PICPRK_ASSERT_MSG(it != group_.end(), "message from a rank outside this communicator");
  return static_cast<int>(it - group_.begin());
}

void Comm::send_bytes(std::vector<std::byte> bytes, int dst, int tag) {
  send_internal(std::move(bytes), dst, tag);
}

void Comm::send_internal(std::vector<std::byte> bytes, int dst, int tag) {
  PICPRK_EXPECTS(dst >= 0 && dst < size());
  const int wdst = group_[static_cast<std::size_t>(dst)];
  int copies = 1;
  if (FaultHook* hook = state_->options.fault_hook) {
    const FaultDecision decision = hook->on_send(world_rank_, wdst, tag, bytes.size());
    switch (decision.kind) {
      case FaultDecision::Kind::Deliver:
        break;
      case FaultDecision::Kind::Drop:
        copies = 0;  // lost on the wire
        break;
      case FaultDecision::Kind::Duplicate:
        copies = 2;
        break;
      case FaultDecision::Kind::Delay: {
        // Sender-side latency; chunked so an abort or a recovery
        // interrupt cuts it short.
        auto remaining = std::chrono::milliseconds(decision.delay_ms);
        while (remaining.count() > 0) {
          if (state_->abort.load(std::memory_order_acquire)) throw WorldAborted{};
          if (state_->interrupt_epoch.load(std::memory_order_acquire) !=
              interrupt_seen_) {
            throw RecvInterrupted{};
          }
          const auto slice = std::min(remaining, std::chrono::milliseconds(5));
          std::this_thread::sleep_for(slice);
          remaining -= slice;
        }
        break;
      }
    }
  }
  if (ReliableTransport* transport = state_->transport.get()) {
    // The transport retains its own copy, heals a dropped wire copy by
    // retransmission and swallows the duplicate in its dedup window.
    Message msg;
    msg.context = context_;
    msg.source = world_rank_;
    msg.tag = tag;
    msg.payload = std::move(bytes);
    transport->send(world_rank_, wdst, std::move(msg), copies);
    return;
  }
  // Unreliable (legacy) path: a dropped message hangs the receiver (the
  // watchdog's job to surface) and a duplicate reaches the mailbox. The
  // extra copy is flagged so the residual drain can tell a would-be
  // dedup-window hit from a genuine protocol leak.
  for (int c = 0; c < copies; ++c) {
    state_->bytes_sent.fetch_add(bytes.size(), std::memory_order_relaxed);
    state_->messages_sent.fetch_add(1, std::memory_order_relaxed);
    Message msg;
    msg.context = context_;
    msg.source = world_rank_;
    msg.tag = tag;
    if (c > 0) msg.flags |= kFlagInjectedDup;
    msg.payload = c + 1 < copies ? bytes : std::move(bytes);
    state_->boxes[static_cast<std::size_t>(wdst)]->push(std::move(msg));
  }
}

Message Comm::recv_bytes(int src, int tag) { return recv_internal(src, tag); }

Mailbox::WaitParams Comm::wait_params() const {
  Mailbox::WaitParams wp = state_->wait_params(world_rank_);
  wp.interrupt_baseline = interrupt_seen_;
  return wp;
}

Message Comm::recv_internal(int src, int tag) {
  PICPRK_EXPECTS(src == kAnySource || (src >= 0 && src < size()));
  const int wsrc = src == kAnySource ? kAnySource : group_[static_cast<std::size_t>(src)];
  Message msg = state_->boxes[static_cast<std::size_t>(world_rank_)]->pop(
      context_, wsrc, tag, wait_params());
  // Translate the source back into this communicator's rank space for
  // user-facing receives; internal callers use group_index explicitly.
  return msg;
}

Status Comm::probe(int src, int tag) {
  PICPRK_EXPECTS(src == kAnySource || (src >= 0 && src < size()));
  const int wsrc = src == kAnySource ? kAnySource : group_[static_cast<std::size_t>(src)];
  Status st = state_->boxes[static_cast<std::size_t>(world_rank_)]->probe_wait(
      context_, wsrc, tag, wait_params());
  st.source = group_index(st.source);
  return st;
}

std::optional<std::vector<std::byte>> Comm::try_recv_buffer(int src, int tag,
                                                            Status* status) {
  PICPRK_EXPECTS(src == kAnySource || (src >= 0 && src < size()));
  const int wsrc = src == kAnySource ? kAnySource : group_[static_cast<std::size_t>(src)];
  auto msg =
      state_->boxes[static_cast<std::size_t>(world_rank_)]->try_pop(context_, wsrc, tag);
  if (!msg) {
    // Match the blocking path's precedence: a deliverable message wins
    // over abort/interrupt, so those are only checked on an empty match.
    const Mailbox::WaitParams wp = wait_params();
    if (wp.abort && wp.abort->load(std::memory_order_acquire)) throw WorldAborted{};
    if (wp.interrupt &&
        wp.interrupt->load(std::memory_order_acquire) != wp.interrupt_baseline)
      throw RecvInterrupted{};
    return std::nullopt;
  }
  if (status) *status = Status{group_index(msg->source), msg->tag, msg->payload.size()};
  return std::move(msg->payload);
}

// picprk-lint: suppress(reach: MPI_Iprobe counterpart; comm and ft tests probe with it)
std::optional<Status> Comm::iprobe(int src, int tag) {
  PICPRK_EXPECTS(src == kAnySource || (src >= 0 && src < size()));
  const int wsrc = src == kAnySource ? kAnySource : group_[static_cast<std::size_t>(src)];
  auto st = state_->boxes[static_cast<std::size_t>(world_rank_)]->probe(context_, wsrc, tag);
  if (st) st->source = group_index(st->source);
  return st;
}

void Comm::barrier() {
  const int tag = next_tag(detail::Op::Barrier);
  const int p = size();
  for (int k = 1; k < p; k <<= 1) {
    const int dst = (rank_ + k) % p;
    const int src = (rank_ - k % p + p) % p;
    send_internal({}, dst, tag);
    (void)recv_internal(src, tag);
  }
}

// picprk-lint: suppress(reach: MPI_Comm_split counterpart; comm tests split with it)
Comm Comm::split(int color, int key) {
  const int tag = next_tag(detail::Op::Split);

  // Gather (color, key, world rank) triples on rank 0 of this comm.
  struct Triple {
    int color, key, wrank;
  };
  const Triple mine{color, key, world_rank_};
  std::vector<std::vector<Triple>> all = gather(std::span<const Triple>(&mine, 1), 0);

  // Rank 0 forms the groups, allocates one fresh context id per color,
  // and sends each member its (context, group) description.
  std::vector<int> my_group;
  int my_context = -1;
  if (rank_ == 0) {
    std::vector<Triple> flat;
    for (auto& v : all) flat.insert(flat.end(), v.begin(), v.end());
    std::stable_sort(flat.begin(), flat.end(), [](const Triple& a, const Triple& b) {
      return std::tie(a.color, a.key, a.wrank) < std::tie(b.color, b.key, b.wrank);
    });
    std::size_t i = 0;
    while (i < flat.size()) {
      std::size_t j = i;
      while (j < flat.size() && flat[j].color == flat[i].color) ++j;
      const int ctx = state_->next_context.fetch_add(1, std::memory_order_relaxed);
      std::vector<int> members;
      members.reserve(j - i);
      for (std::size_t t = i; t < j; ++t) members.push_back(flat[t].wrank);
      for (std::size_t t = i; t < j; ++t) {
        const int member_comm_rank = group_index(flat[t].wrank);
        if (member_comm_rank == 0) {
          my_context = ctx;
          my_group = members;
        } else {
          std::vector<int> desc;
          desc.push_back(ctx);
          desc.insert(desc.end(), members.begin(), members.end());
          send_internal(as_bytes_copy(std::span<const int>(desc)), member_comm_rank, tag);
        }
      }
      i = j;
    }
  } else {
    Message msg = recv_internal(0, tag);
    auto desc = from_bytes<int>(msg.payload);
    PICPRK_ASSERT(desc.size() >= 2);
    my_context = desc.front();
    my_group.assign(desc.begin() + 1, desc.end());
  }
  PICPRK_ASSERT(my_context > 0);
  return Comm(state_, world_rank_, my_context, std::move(my_group));
}

}  // namespace picprk::comm
