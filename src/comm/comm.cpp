#include "comm/comm.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "comm/reliable.hpp"

namespace picprk::comm {

bool Comm::transport_retry_pending() const {
  return state_->transport != nullptr && state_->transport->retry_pending_to(rank_);
}

Comm::Comm(WorldState* state, int rank) : state_(state), rank_(rank) {
  PICPRK_EXPECTS(state != nullptr);
  PICPRK_EXPECTS(rank >= 0 && rank < state->size);
  interrupt_seen_ = state_->interrupt_epoch.load(std::memory_order_acquire);
}

void Comm::send_bytes(std::vector<std::byte> bytes, int dst, int tag) {
  PICPRK_EXPECTS(dst >= 0 && dst < size());
  int copies = 1;
  if (FaultHook* hook = state_->options.fault_hook) {
    const FaultDecision decision = hook->on_send(rank_, dst, tag, bytes.size());
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
    msg.source = rank_;
    msg.tag = tag;
    msg.payload = std::move(bytes);
    transport->send(rank_, dst, std::move(msg), copies);
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
    msg.source = rank_;
    msg.tag = tag;
    if (c > 0) msg.flags |= kFlagInjectedDup;
    msg.payload = c + 1 < copies ? bytes : std::move(bytes);
    state_->boxes[static_cast<std::size_t>(dst)]->push(std::move(msg));
  }
}

Mailbox::WaitParams Comm::wait_params() const {
  Mailbox::WaitParams wp = state_->wait_params(rank_);
  wp.interrupt_baseline = interrupt_seen_;
  return wp;
}

Message Comm::recv_bytes(int src, int tag) {
  PICPRK_EXPECTS(src == kAnySource || (src >= 0 && src < size()));
  return state_->boxes[static_cast<std::size_t>(rank_)]->pop(src, tag, wait_params());
}

Status Comm::probe(int src, int tag) {
  PICPRK_EXPECTS(src == kAnySource || (src >= 0 && src < size()));
  return state_->boxes[static_cast<std::size_t>(rank_)]->probe_wait(src, tag,
                                                                    wait_params());
}

std::optional<std::vector<std::byte>> Comm::try_recv_buffer(int src, int tag,
                                                            Status* status) {
  PICPRK_EXPECTS(src == kAnySource || (src >= 0 && src < size()));
  auto msg = state_->boxes[static_cast<std::size_t>(rank_)]->try_pop(src, tag);
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
  if (status) *status = Status{msg->source, msg->tag, msg->payload.size()};
  return std::move(msg->payload);
}

/* picprk-lint: suppress(reach: read by P2P.IprobeReturnsNulloptWhenEmpty; the ft and
   reliable-transport tests check for leftover messages with it) */
std::optional<Status> Comm::iprobe(int src, int tag) {
  PICPRK_EXPECTS(src == kAnySource || (src >= 0 && src < size()));
  return state_->boxes[static_cast<std::size_t>(rank_)]->probe(src, tag);
}

void Comm::barrier() {
  const int tag = next_tag(detail::Op::Barrier);
  const int p = size();
  for (int k = 1; k < p; k <<= 1) {
    const int dst = (rank_ + k) % p;
    const int src = (rank_ - k % p + p) % p;
    send_bytes({}, dst, tag);
    (void)recv_bytes(src, tag);
  }
}

}  // namespace picprk::comm
