#include "par/async.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "comm/mailbox.hpp"
#include "lb/registry.hpp"
#include "obs/phase.hpp"
#include "par/pic_vp.hpp"
#include "util/assert.hpp"
#include "util/timer.hpp"
#include "vpr/inbox.hpp"
#include "vpr/pup.hpp"

namespace picprk::par {

namespace {

/// Wire prefix of every kAsyncParticlesTag payload; AoS particle
/// records follow. The step stamp drives the delivery-eligibility rule.
struct WireHeader {
  std::int32_t src_vp = 0;
  std::int32_t dst_vp = 0;
  std::uint32_t step = 0;
};
static_assert(std::is_trivially_copyable_v<WireHeader>);

/// Prefix of a kAsyncMigrateTag payload; the PUP-packed VP follows.
struct MigrateHeader {
  std::int32_t vp = 0;
  std::uint32_t step = 0;
};
static_assert(std::is_trivially_copyable_v<MigrateHeader>);

/// Mattern's circulating token: global (sent, received) accumulators
/// for one step's particle messages. The step stamp matters: rank 0 can
/// finish step s, compute s+1 and launch the s+1 token while a slow
/// rank is still draining step s — that rank must park the early token
/// until its own s+1 counters exist, not fold stale counts into it.
struct Token {
  std::uint32_t step = 0;
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  bool balanced_as(const Token& prev) const {
    return sent == received && sent == prev.sent && received == prev.received;
  }
};
static_assert(std::is_trivially_copyable_v<Token>);

class AsyncEngine final : public vpr::VpContext {
 public:
  AsyncEngine(comm::Comm& comm, const RunConfig& config)
      : comm_(comm),
        config_(config),
        rank_(comm.rank()),
        vp_count_(config.ranks * config.overdecomposition),
        shared_(std::make_shared<const PicVpShared>(config, vp_count_)) {
    PICPRK_EXPECTS(comm.size() == config.ranks);
    PICPRK_EXPECTS(config.overdecomposition >= 1);
    owner_.resize(static_cast<std::size_t>(vp_count_));
    vps_.resize(static_cast<std::size_t>(vp_count_));
    inbox_.resize(static_cast<std::size_t>(vp_count_));
    stepped_.assign(static_cast<std::size_t>(vp_count_), 0);
    vp_seconds_.assign(static_cast<std::size_t>(vp_count_), 0.0);
    for (int v = 0; v < vp_count_; ++v) {
      owner_[static_cast<std::size_t>(v)] =
          comm::block_owner(vp_count_, config.ranks, v);
      if (owner_[static_cast<std::size_t>(v)] == rank_) {
        auto vp = std::make_unique<PicVp>(v, shared_);
        vp->populate();
        vps_[static_cast<std::size_t>(v)] = std::move(vp);
      }
    }
    const std::string spec =
        config.lb.strategy.empty() ? std::string("steal") : config.lb.strategy;
    balancer_ = lb::make_strategy(spec);
    if (!balancer_->balances_placement()) {
      throw std::invalid_argument("async: strategy '" + balancer_->name() +
                                  "' has no placement capability; pick e.g. "
                                  "steal, greedy, diffusion, rcb or compact");
    }
  }

  DriverResult run();

  // ------------------------------------------------------- VpContext
  void send(int dst_vp, std::vector<std::byte> payload) override {
    PICPRK_EXPECTS(dst_vp >= 0 && dst_vp < vp_count_);
    exchange_bytes_ += payload.size();
    const int dst_rank = owner_[static_cast<std::size_t>(dst_vp)];
    if (dst_rank == rank_) {
      if (stepped_[static_cast<std::size_t>(dst_vp)] != 0) {
        vps_[static_cast<std::size_t>(dst_vp)]->deliver(current_vp_,
                                                        std::move(payload));
      } else {
        inbox_[static_cast<std::size_t>(dst_vp)].hold(step_, current_vp_,
                                                      std::move(payload));
      }
      return;
    }
    std::vector<std::byte> wire(sizeof(WireHeader) + payload.size());
    const WireHeader h{current_vp_, dst_vp, step_};
    std::memcpy(wire.data(), &h, sizeof h);
    if (!payload.empty()) {
      std::memcpy(wire.data() + sizeof h, payload.data(), payload.size());
    }
    comm_.send_buffer(std::move(wire), dst_rank, comm::kAsyncParticlesTag);
    ++sent_cur_;
  }
  std::uint32_t step() const override { return step_; }
  int vps() const override { return vp_count_; }

 private:
  /// Drains every queued particle payload without blocking; early
  /// (next-step) arrivals are parked in the destination's inbox.
  /// Returns the number of messages taken off the wire.
  std::size_t poll_incoming(bool during_compute) {
    std::size_t got = 0;
    while (auto wire =
               comm_.try_recv_buffer(comm::kAnySource, comm::kAsyncParticlesTag)) {
      WireHeader h;
      PICPRK_ASSERT_MSG(wire->size() >= sizeof h, "async: short particle payload");
      std::memcpy(&h, wire->data(), sizeof h);
      PICPRK_ASSERT_MSG(h.dst_vp >= 0 && h.dst_vp < vp_count_ &&
                            owner_[static_cast<std::size_t>(h.dst_vp)] == rank_,
                        "async: payload routed to a VP this rank does not own");
      if (h.step == step_) {
        ++recv_cur_;
      } else {
        // A sender can be at most one step ahead: it needed this rank's
        // token contribution to finish step_, and step_+2 would need a
        // second termination this rank has not joined.
        PICPRK_ASSERT_MSG(h.step == step_ + 1, "async: payload from the far future");
        ++recv_next_;
      }
      std::vector<std::byte> payload(wire->begin() + sizeof h, wire->end());
      auto& vp = vps_[static_cast<std::size_t>(h.dst_vp)];
      if (h.step == step_ && stepped_[static_cast<std::size_t>(h.dst_vp)] != 0) {
        vp->deliver(h.src_vp, std::move(payload));
      } else {
        inbox_[static_cast<std::size_t>(h.dst_vp)].hold(h.step, h.src_vp,
                                                        std::move(payload));
      }
      ++got;
    }
    if (got > 0) {
      if (during_compute && overlap_deliveries_ != nullptr) {
        overlap_deliveries_->add(got);
      } else if (!during_compute && drain_deliveries_ != nullptr) {
        drain_deliveries_->add(got);
      }
    }
    return got;
  }

  /// Blocks (politely: poll + yield/sleep backoff) until the Mattern
  /// token proves every step_`-stamped particle message has been
  /// received — the step boundary, without a collective.
  void drain_until_terminated() {
    const int p = comm_.size();
    if (p == 1) return;  // nothing remote can be in flight
    const auto deadline = std::chrono::milliseconds(config_.resilience.timeout_ms);
    auto last_progress = std::chrono::steady_clock::now();
    int idle_polls = 0;
    Token prev{step_, ~0ull, ~0ull};
    bool terminated = false;
    const auto forward = [&](Token t) {
      PICPRK_ASSERT_MSG(t.step == step_, "async: forwarding a stale token");
      t.sent += sent_cur_;
      t.received += recv_cur_;
      comm_.send_value(t, (rank_ + 1) % p, comm::kAsyncTokenTag);
      if (token_rounds_ != nullptr && rank_ == 0) token_rounds_->add(1);
    };
    if (rank_ == 0) {
      forward(Token{step_});
    } else if (pending_token_ && pending_token_->step == step_) {
      // The token that arrived early, while this rank was still
      // draining the previous step; our counters exist now.
      forward(*pending_token_);
      pending_token_.reset();
    }
    while (!terminated) {
      bool progress = poll_incoming(/*during_compute=*/false) > 0;
      if (rank_ == 0) {
        if (auto tok = comm_.try_recv_value<Token>(p - 1, comm::kAsyncTokenTag)) {
          progress = true;
          PICPRK_ASSERT_MSG(tok->step == step_, "async: token returned for a "
                                                "different step");
          if (tok->balanced_as(prev)) {
            // Two consecutive identical balanced rounds: globally quiet.
            for (int r = 1; r < p; ++r) {
              comm_.send_value(step_, r, comm::kAsyncTermTag);
            }
            terminated = true;
          } else {
            prev = *tok;
            forward(Token{step_});
          }
        }
      } else {
        if (auto tok = comm_.try_recv_value<Token>(rank_ - 1, comm::kAsyncTokenTag)) {
          progress = true;
          if (tok->step == step_) {
            forward(*tok);
          } else {
            // The ring ahead of us is already terminating the next step.
            PICPRK_ASSERT_MSG(tok->step == step_ + 1 && !pending_token_,
                              "async: token from the far future");
            pending_token_ = *tok;
          }
        }
        if (auto term = comm_.try_recv_value<std::uint32_t>(0, comm::kAsyncTermTag)) {
          PICPRK_ASSERT_MSG(*term == step_, "async: termination for a different step");
          terminated = true;
          progress = true;  // skip the idle wait below: we are done
        }
      }
      if (progress) {
        last_progress = std::chrono::steady_clock::now();
        idle_polls = 0;
        continue;
      }
      if (comm_.transport_retry_pending()) {
        // In-band retries still running: re-arm the deadline so the
        // timeout only fires once the retransmit budget is exhausted,
        // mirroring the blocking recv path.
        last_progress = std::chrono::steady_clock::now();
      } else if (deadline.count() > 0 &&
                 std::chrono::steady_clock::now() - last_progress > deadline) {
        throw comm::CommTimeout(
            "async drain: no progress within " + std::to_string(deadline.count()) +
                " ms waiting for step " + std::to_string(step_) + " to terminate",
            comm::kAnySource, comm::kAsyncParticlesTag);
      }
      // Nothing ready: block on the mailbox until any envelope arrives
      // instead of yield-spinning. On oversubscribed hosts the spin
      // burns the scheduler quantum the *sender* needs, turning every
      // token hop into a scheduling round-trip; the condvar wait wakes
      // this rank the moment something lands. The probe honors the
      // world deadline and re-arms it while transport retries are in
      // flight, so fault scenarios still surface CommTimeout.
      const comm::Status st = comm_.probe(comm::kAnySource, comm::kAnyTag);
      if (st.tag != comm::kAsyncParticlesTag && st.tag != comm::kAsyncTokenTag &&
          st.tag != comm::kAsyncTermTag) {
        // A rank that already terminated has moved on to a collective
        // (rebalance, sampling); its envelope is not ours to consume
        // and will keep matching the probe. Back off politely until
        // our own TERM arrives.
        if (++idle_polls > 64) {
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        } else {
          std::this_thread::yield();
        }
      }
    }
  }

  /// Quiet-point load balancing: allgathered per-VP loads feed the pure
  /// strategy, every rank evaluates the identical plan, and reassigned
  /// VPs ship their PUP state to the new owner.
  void rebalance() {
    std::vector<double> loads(static_cast<std::size_t>(vp_count_), 0.0);
    for (int v = 0; v < vp_count_; ++v) {
      if (owner_[static_cast<std::size_t>(v)] != rank_) continue;
      loads[static_cast<std::size_t>(v)] =
          config_.lb.measured ? vp_seconds_[static_cast<std::size_t>(v)]
                              : vps_[static_cast<std::size_t>(v)]->load();
    }
    loads = comm_.allreduce(std::span<const double>(loads), std::plus<>{});

    lb::PlacementInput input;
    input.metric = config_.lb.measured ? lb::LoadMetric::kComputeSeconds
                                       : lb::LoadMetric::kParticles;
    input.step = step_;
    input.interval_steps = config_.lb.every;
    input.workers = comm_.size();
    input.parts.resize(static_cast<std::size_t>(vp_count_));
    for (int v = 0; v < vp_count_; ++v) {
      auto& part = input.parts[static_cast<std::size_t>(v)];
      part.part = v;
      part.load = loads[static_cast<std::size_t>(v)];
      part.owner = owner_[static_cast<std::size_t>(v)];
      part.neighbors = {shared_->vcart.neighbor(v, 1, 0),
                        shared_->vcart.neighbor(v, -1, 0),
                        shared_->vcart.neighbor(v, 0, 1),
                        shared_->vcart.neighbor(v, 0, -1)};
    }
    util::Timer event_timer;
    const std::vector<int> plan = balancer_->rebalance_placement(input);
    PICPRK_ASSERT_MSG(plan.size() == input.parts.size(),
                      "async: balancer returned a wrong-size plan");
    if (lb_decisions_ != nullptr) lb_decisions_->add(1);
    bool changed = false;

    // Ship outgoing VPs (ascending id; FIFO per (source,tag) lets the
    // receiver recv in the same deterministic order), then collect
    // incoming ones. The world is quiet, so blocking recvs are safe.
    double moved_load = 0.0;
    std::uint64_t event_bytes = 0;
    for (int v = 0; v < vp_count_; ++v) {
      const int from = owner_[static_cast<std::size_t>(v)];
      const int to = plan[static_cast<std::size_t>(v)];
      PICPRK_ASSERT_MSG(to >= 0 && to < comm_.size(),
                        "async: balancer mapped a VP to an invalid rank");
      if (to == from) continue;
      changed = true;
      if (from != rank_) continue;
      auto& vp = vps_[static_cast<std::size_t>(v)];
      PICPRK_ASSERT_MSG(inbox_[static_cast<std::size_t>(v)].empty(),
                        "async: migrating a VP with parked deliveries");
      std::vector<std::byte> packed = vpr::pup_pack(*vp);
      std::vector<std::byte> wire(sizeof(MigrateHeader) + packed.size());
      const MigrateHeader h{v, step_};
      std::memcpy(wire.data(), &h, sizeof h);
      std::memcpy(wire.data() + sizeof h, packed.data(), packed.size());
      moved_load += loads[static_cast<std::size_t>(v)];
      event_bytes += wire.size();
      lb_bytes_ += wire.size();
      ++lb_actions_;
      comm_.send_buffer(std::move(wire), to, comm::kAsyncMigrateTag);
      vp.reset();
    }
    for (int v = 0; v < vp_count_; ++v) {
      const int from = owner_[static_cast<std::size_t>(v)];
      const int to = plan[static_cast<std::size_t>(v)];
      if (to == from || to != rank_) continue;
      std::vector<std::byte> wire;
      comm_.recv_into(wire, from, comm::kAsyncMigrateTag);
      MigrateHeader h;
      PICPRK_ASSERT_MSG(wire.size() >= sizeof h, "async: short migration payload");
      std::memcpy(&h, wire.data(), sizeof h);
      PICPRK_ASSERT_MSG(h.vp == v && h.step == step_,
                        "async: migration arrived out of order");
      auto vp = std::make_unique<PicVp>(v, shared_);
      vpr::pup_unpack(*vp,
                      std::vector<std::byte>(wire.begin() + sizeof h, wire.end()));
      vps_[static_cast<std::size_t>(v)] = std::move(vp);
    }
    for (int v = 0; v < vp_count_; ++v) {
      owner_[static_cast<std::size_t>(v)] = plan[static_cast<std::size_t>(v)];
    }
    if (changed) {
      if (lb_rebalances_ != nullptr) lb_rebalances_->add(1);
    } else if (lb_skipped_ != nullptr) {
      lb_skipped_->add(1);
    }
    if (balancer_->wants_feedback()) {
      // Feedback must be globally identical: reduce the event's cost.
      struct Cost {
        double seconds, load;
        std::uint64_t bytes;
      };
      const Cost mine{event_timer.elapsed(), moved_load, event_bytes};
      const Cost merged = comm_.allreduce_value<Cost>(mine, [](Cost a, Cost b) {
        return Cost{std::max(a.seconds, b.seconds), a.load + b.load,
                    a.bytes + b.bytes};
      });
      lb::ApplyFeedback feedback;
      feedback.lb_seconds = merged.seconds;
      feedback.moved_load = merged.load;
      feedback.moved_bytes = merged.bytes;
      balancer_->note_applied(feedback);
    }
    std::fill(vp_seconds_.begin(), vp_seconds_.end(), 0.0);
  }

  comm::Comm& comm_;
  const RunConfig& config_;
  int rank_;
  int vp_count_;
  std::shared_ptr<const PicVpShared> shared_;
  std::vector<int> owner_;                       ///< vp id -> rank, replicated
  std::vector<std::unique_ptr<PicVp>> vps_;      ///< local slots (null = remote)
  std::vector<vpr::StepInbox> inbox_;            ///< early / unstepped arrivals
  std::vector<std::uint8_t> stepped_;            ///< finished this step's compute
  std::vector<double> vp_seconds_;               ///< measured load per LB epoch
  std::unique_ptr<lb::Strategy> balancer_;
  std::uint32_t step_ = 0;
  int current_vp_ = -1;
  std::optional<Token> pending_token_;  ///< next step's token, arrived early
  std::uint64_t sent_cur_ = 0;   ///< remote sends stamped step_
  std::uint64_t recv_cur_ = 0;   ///< remote receipts stamped step_
  std::uint64_t recv_next_ = 0;  ///< early receipts stamped step_ + 1
  std::uint64_t exchange_bytes_ = 0;
  std::uint64_t lb_actions_ = 0;
  std::uint64_t lb_bytes_ = 0;
  obs::Counter* overlap_deliveries_ = nullptr;
  obs::Counter* drain_deliveries_ = nullptr;
  obs::Counter* token_rounds_ = nullptr;
  obs::Counter* lb_decisions_ = nullptr;
  obs::Counter* lb_rebalances_ = nullptr;
  obs::Counter* lb_skipped_ = nullptr;
};

DriverResult AsyncEngine::run() {
  // Registration/allocation up front; the step loop allocates only for
  // payloads. Three trace spans per step: compute, wait, (lb).
  const obs::StepInstruments inst(config_.obs, "async", 0,
                                  "rank " + std::to_string(rank_), rank_,
                                  static_cast<std::size_t>(config_.steps) * 3 + 8);
  if (config_.obs.registry != nullptr) {
    overlap_deliveries_ =
        &config_.obs.registry->register_counter("async/overlap_deliveries");
    drain_deliveries_ =
        &config_.obs.registry->register_counter("async/drain_deliveries");
    token_rounds_ = &config_.obs.registry->register_counter("async/token_rounds");
  }
  lb_decisions_ = inst.lb_decisions;
  lb_rebalances_ = inst.lb_rebalances;
  lb_skipped_ = inst.lb_skipped;

  DriverResult result;
  double compute_seconds = 0.0, wait_seconds = 0.0, lb_seconds = 0.0;
  util::Timer wall;
  for (step_ = 0; step_ < config_.steps; ++step_) {
    std::fill(stepped_.begin(), stepped_.end(), 0);
    sent_cur_ = 0;
    recv_cur_ = recv_next_;  // early arrivals count toward this step
    recv_next_ = 0;
    {
      obs::Phase phase(obs::kPhaseCompute, &compute_seconds, inst.lane,
                       inst.compute);
      util::Timer vp_timer;
      for (int v = 0; v < vp_count_; ++v) {
        if (owner_[static_cast<std::size_t>(v)] != rank_) continue;
        // The overlap: arrivals from ranks that finished earlier are
        // absorbed between VP computes instead of after a barrier.
        poll_incoming(/*during_compute=*/true);
        current_vp_ = v;
        vp_timer.reset();
        vps_[static_cast<std::size_t>(v)]->step(*this);
        vp_seconds_[static_cast<std::size_t>(v)] += vp_timer.elapsed();
        stepped_[static_cast<std::size_t>(v)] = 1;
        // Eligibility point: B finished step-s compute, so every parked
        // step-s payload (local sends and early remote arrivals) lands.
        inbox_[static_cast<std::size_t>(v)].flush(
            step_, *vps_[static_cast<std::size_t>(v)]);
      }
      current_vp_ = -1;
    }
    {
      obs::Phase phase(obs::kPhaseWait, &wait_seconds, inst.lane, inst.exchange);
      drain_until_terminated();
    }
    if (config_.lb.every > 0 && (step_ + 1) % config_.lb.every == 0 &&
        step_ + 1 < config_.steps) {
      obs::Phase phase(obs::kPhaseLb, &lb_seconds, inst.lane, inst.lb);
      rebalance();
    }
    if (inst.steps != nullptr) inst.steps->add(1);
    if (config_.sample_every > 0 && step_ % config_.sample_every == 0) {
      std::uint64_t local = 0;
      for (int v = 0; v < vp_count_; ++v) {
        if (owner_[static_cast<std::size_t>(v)] == rank_) {
          local += vps_[static_cast<std::size_t>(v)]->particles().size();
        }
      }
      if (config_.obs.active()) {
        const obs::StepSample sample = sample_step_telemetry(
            comm_, static_cast<int>(step_), local, compute_seconds);
        result.step_samples.push_back(sample);
        result.imbalance_series.push_back(sample.lambda);
      } else {
        result.imbalance_series.push_back(sample_imbalance(comm_, local));
      }
    }
  }
  const double seconds = wall.elapsed();

  VpVerifyTally tally;
  std::uint64_t local_particles = 0;
  for (int v = 0; v < vp_count_; ++v) {
    if (owner_[static_cast<std::size_t>(v)] != rank_) continue;
    accumulate_vp_verification(*vps_[static_cast<std::size_t>(v)], config_, tally);
    local_particles += vps_[static_cast<std::size_t>(v)]->particles().size();
  }
  // The wait phase fills the exchange slot of the breakdown.
  finalize_result(comm_, shared_->init, shared_->events,
                  RankTotals{.verify = tally.verify,
                             .removed_id_sum = tally.removed_id_sum,
                             .particles = local_particles,
                             .seconds = seconds,
                             .phases = PhaseBreakdown{compute_seconds, wait_seconds,
                                                      lb_seconds, 0.0},
                             .sent = tally.sent_particles,
                             .bytes = exchange_bytes_,
                             .lb_actions = lb_actions_,
                             .lb_bytes = lb_bytes_},
                  result);
  return result;
}

}  // namespace

DriverResult run_async(comm::Comm& comm, const RunConfig& config) {
  AsyncEngine engine(comm, config);
  return engine.run();
}

}  // namespace picprk::par
