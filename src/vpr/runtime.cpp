#include "vpr/runtime.hpp"

#include <algorithm>
#include <stdexcept>

#include "lb/placement.hpp"
#include "lb/registry.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace picprk::vpr {

namespace {

/// VpContext bound to one VP's outbox for one superstep.
class OutboxContext final : public VpContext {
 public:
  OutboxContext(std::vector<VpMessage>& outbox, int src_vp, std::uint32_t step, int vps)
      : outbox_(outbox), src_(src_vp), step_(step), vps_(vps) {}

  void send(int dst_vp, std::vector<std::byte> payload) override {
    PICPRK_EXPECTS(dst_vp >= 0 && dst_vp < vps_);
    outbox_.push_back(VpMessage{src_, dst_vp, std::move(payload)});
  }

  std::uint32_t step() const override { return step_; }
  int vps() const override { return vps_; }

 private:
  std::vector<VpMessage>& outbox_;
  int src_;
  std::uint32_t step_;
  int vps_;
};

}  // namespace

Runtime::Runtime(RuntimeConfig config, const Factory& factory)
    : config_(config), factory_(factory), pool_(config.workers) {
  PICPRK_EXPECTS(config_.workers >= 1);
  PICPRK_EXPECTS(config_.vps >= config_.workers);
  balancer_ = lb::make_strategy(config_.balancer);
  if (!balancer_->balances_placement()) {
    throw std::invalid_argument("vpr: strategy '" + balancer_->name() +
                                "' cannot place VPs (bounds-only; use the "
                                "diffusion driver)");
  }
  vps_.reserve(static_cast<std::size_t>(config_.vps));
  vp_worker_.resize(static_cast<std::size_t>(config_.vps));
  vp_measured_seconds_.assign(static_cast<std::size_t>(config_.vps), 0.0);
  inboxes_.resize(static_cast<std::size_t>(config_.vps));
  outboxes_.resize(static_cast<std::size_t>(config_.vps));
  for (int v = 0; v < config_.vps; ++v) {
    vps_.push_back(factory_(v));
    PICPRK_ASSERT_MSG(vps_.back() != nullptr, "vp factory returned null");
    // Blockwise initial placement: contiguous VP ranges per worker, the
    // locality-preserving assignment of paper Figure 4 (left).
    vp_worker_[static_cast<std::size_t>(v)] =
        static_cast<int>((static_cast<std::int64_t>(v) * config_.workers) / config_.vps);
  }
  if (config_.obs.active()) {
    // All telemetry registration happens here, before any superstep runs.
    if (config_.obs.trace != nullptr) {
      vp_lanes_.resize(static_cast<std::size_t>(config_.vps), nullptr);
      for (int v = 0; v < config_.vps; ++v) {
        vp_lanes_[static_cast<std::size_t>(v)] =
            &config_.obs.trace->lane(1, "vpr", v, "vp " + std::to_string(v));
      }
    }
    if (config_.obs.registry != nullptr) {
      obs::Registry& reg = *config_.obs.registry;
      step_hist_ = &reg.register_histogram("vpr/phase_step_seconds", 0.0, 0.05, 100);
      deliver_hist_ =
          &reg.register_histogram("vpr/phase_deliver_seconds", 0.0, 0.05, 100);
      lb_hist_ = &reg.register_histogram("vpr/phase_lb_seconds", 0.0, 0.05, 100);
      messages_counter_ = &reg.register_counter("vpr/messages");
      message_bytes_counter_ = &reg.register_counter("vpr/message_bytes");
      cross_worker_bytes_counter_ = &reg.register_counter("vpr/cross_worker_bytes");
      migrations_counter_ = &reg.register_counter("vpr/migrations");
      migrated_bytes_counter_ = &reg.register_counter("vpr/migrated_bytes");
      lb_invocations_counter_ = &reg.register_counter("vpr/lb_invocations");
    }
  }
}

int Runtime::worker_of(int vp) const {
  PICPRK_EXPECTS(vp >= 0 && vp < config_.vps);
  return vp_worker_[static_cast<std::size_t>(vp)];
}

VirtualProcessor& Runtime::vp(int id) {
  PICPRK_EXPECTS(id >= 0 && id < config_.vps);
  return *vps_[static_cast<std::size_t>(id)];
}

void Runtime::rewind(std::uint32_t step) {
  PICPRK_EXPECTS(step <= current_step_);
  current_step_ = step;
  for (auto& inbox : inboxes_) inbox.clear();
  for (auto& outbox : outboxes_) outbox.clear();
  std::fill(vp_measured_seconds_.begin(), vp_measured_seconds_.end(), 0.0);
}

void Runtime::run(std::uint32_t steps) {
  util::Timer wall;
  const std::size_t count = vps_.size();
  for (std::uint32_t s = 0; s < steps; ++s) {
    const std::uint32_t step = current_step_;
    pool_.run_placed(
        count, vp_worker_,
        [this, step](std::size_t v, int) { step_vp(static_cast<int>(v), step); },
        /*allow_steal=*/false);
    route_messages();
    pool_.run_placed(
        count, vp_worker_, [this](std::size_t v, int) { deliver_vp(static_cast<int>(v)); },
        /*allow_steal=*/false);
    maybe_balance(step);
    ++current_step_;
    ++stats_.steps;
  }
  stats_.step_seconds += wall.elapsed();
}

void Runtime::step_vp(int v, std::uint32_t global_step) {
  const auto i = static_cast<std::size_t>(v);
  OutboxContext ctx(outboxes_[i], v, global_step, config_.vps);
  // The Phase accumulates into the measured-load vector the balancer
  // consumes — the telemetry and LB input share one clock read.
  obs::Phase phase(obs::kPhaseStep, &vp_measured_seconds_[i],
                   vp_lanes_.empty() ? nullptr : vp_lanes_[i], step_hist_);
  vps_[i]->step(ctx);
}

void Runtime::deliver_vp(int v) {
  const auto i = static_cast<std::size_t>(v);
  auto& inbox = inboxes_[i];
  if (inbox.empty()) return;
  obs::Phase phase(obs::kPhaseDeliver, nullptr, vp_lanes_.empty() ? nullptr : vp_lanes_[i],
                   deliver_hist_);
  for (auto& msg : inbox) vps_[i]->deliver(msg.src, std::move(msg.payload));
  inbox.clear();
}

void Runtime::maybe_balance(std::uint32_t global_step) {
  if (config_.lb_interval > 0 && global_step > 0 &&
      global_step % config_.lb_interval == 0) {
    run_load_balancer(global_step);
  }
}

void Runtime::route_messages() {
  const std::uint64_t messages_before = stats_.messages;
  const std::uint64_t bytes_before = stats_.message_bytes;
  const std::uint64_t cross_before = stats_.cross_worker_bytes;
  // Ascending source order: what a VP receives, and in which order,
  // does not depend on where the balancer placed the senders.
  for (auto& outbox : outboxes_) {
    for (auto& msg : outbox) {
      ++stats_.messages;
      stats_.message_bytes += msg.payload.size();
      if (vp_worker_[static_cast<std::size_t>(msg.src)] !=
          vp_worker_[static_cast<std::size_t>(msg.dst)]) {
        stats_.cross_worker_bytes += msg.payload.size();
      }
      inboxes_[static_cast<std::size_t>(msg.dst)].push_back(std::move(msg));
    }
    outbox.clear();
  }
  // Registry mirrors: one add per routing round, not per message.
  if (messages_counter_ != nullptr) {
    messages_counter_->add(stats_.messages - messages_before);
    message_bytes_counter_->add(stats_.message_bytes - bytes_before);
    cross_worker_bytes_counter_->add(stats_.cross_worker_bytes - cross_before);
  }
}

lb::PlacementInput Runtime::build_placement_input(std::uint32_t global_step,
                                                  std::vector<double>* worker_load,
                                                  double* total_measured) const {
  lb::PlacementInput input;
  input.metric = config_.use_measured_load ? lb::LoadMetric::kComputeSeconds
                                           : lb::LoadMetric::kParticles;
  input.step = global_step;
  input.interval_steps = config_.lb_interval;
  input.workers = config_.workers;
  input.dead_workers = dead_workers_;
  input.parts.resize(static_cast<std::size_t>(config_.vps));
  for (int v = 0; v < config_.vps; ++v) {
    auto& entry = input.parts[static_cast<std::size_t>(v)];
    entry.part = v;
    entry.owner = vp_worker_[static_cast<std::size_t>(v)];
    entry.load = config_.use_measured_load
                     ? vp_measured_seconds_[static_cast<std::size_t>(v)]
                     : vps_[static_cast<std::size_t>(v)]->load();
    entry.neighbors = vps_[static_cast<std::size_t>(v)]->neighbor_vps();
    if (worker_load != nullptr) {
      (*worker_load)[static_cast<std::size_t>(entry.owner)] += entry.load;
    }
    if (total_measured != nullptr) {
      *total_measured += vp_measured_seconds_[static_cast<std::size_t>(v)];
    }
  }
  return input;
}

double Runtime::apply_placement(const lb::PlacementInput& input,
                                const std::vector<int>& remap) {
  PICPRK_ASSERT_MSG(remap.size() == input.parts.size(),
                    "balancer returned wrong-size map");
  const std::uint64_t migrations_before = stats_.migrations;
  const std::uint64_t migrated_bytes_before = stats_.migrated_bytes;
  double moved_load = 0.0;
  for (int v = 0; v < config_.vps; ++v) {
    const int target = remap[static_cast<std::size_t>(v)];
    PICPRK_ASSERT_MSG(target >= 0 && target < config_.workers,
                      "balancer mapped a VP to an invalid worker");
    PICPRK_ASSERT_MSG(
        !std::binary_search(dead_workers_.begin(), dead_workers_.end(), target),
        "balancer mapped a VP to a retired worker");
    if (target == vp_worker_[static_cast<std::size_t>(v)]) continue;
    // Migrate: PUP-pack the complete VP state, recreate it from the
    // factory, and unpack — exactly the cost a distributed runtime pays
    // (serialize, ship, rebuild), with the shipping byte count recorded.
    auto& slot = vps_[static_cast<std::size_t>(v)];
    std::vector<std::byte> buffer = pup_pack(*slot);
    stats_.migrated_bytes += buffer.size();
    ++stats_.migrations;
    moved_load += input.parts[static_cast<std::size_t>(v)].load;
    slot = factory_(v);
    pup_unpack(*slot, std::move(buffer));
    vp_worker_[static_cast<std::size_t>(v)] = target;
    PICPRK_TRACE("vpr: migrated vp " << v << " -> worker " << target);
  }
  if (migrations_counter_ != nullptr) {
    migrations_counter_->add(stats_.migrations - migrations_before);
    migrated_bytes_counter_->add(stats_.migrated_bytes - migrated_bytes_before);
  }
  return moved_load;
}

void Runtime::run_load_balancer(std::uint32_t global_step) {
  obs::Phase phase(obs::kPhaseLb, &stats_.lb_seconds, nullptr, lb_hist_);
  util::Timer event_timer;  // feedback clock for cost-model strategies
  ++stats_.lb_invocations;
  if (lb_invocations_counter_ != nullptr) lb_invocations_counter_->add();

  std::vector<double> worker_load(static_cast<std::size_t>(config_.workers), 0.0);
  double total_measured = 0.0;
  lb::PlacementInput in =
      build_placement_input(global_step, &worker_load, &total_measured);
  if (balancer_->wants_feedback()) {
    // Mean measured compute seconds per worker over the closing interval
    // (single process: trivially identical for every observer).
    in.interval_compute_seconds =
        total_measured / static_cast<double>(config_.workers);
  }
  // λ over the *live* workers only — a retired worker's permanent zero
  // would otherwise deflate the mean without describing any real core.
  std::vector<double> live_load;
  live_load.reserve(worker_load.size());
  for (int w = 0; w < config_.workers; ++w) {
    if (!std::binary_search(dead_workers_.begin(), dead_workers_.end(), w)) {
      live_load.push_back(worker_load[static_cast<std::size_t>(w)]);
    }
  }
  stats_.imbalance_before_lb.push_back(
      util::imbalance(std::span<const double>(live_load)).ratio);

  // A balancer without degraded support must not see dead workers; fall
  // back to pure evacuation so orphans still leave (the caller is
  // expected to have checked supports_degraded() before relying on
  // quality, this keeps correctness regardless).
  const std::vector<int> remap =
      (!dead_workers_.empty() && !balancer_->supports_degraded())
          ? lb::evacuate_placement(in)
          : balancer_->rebalance_placement(in);

  const std::uint64_t migrations_before = stats_.migrations;
  const std::uint64_t migrated_bytes_before = stats_.migrated_bytes;
  const double moved_load = apply_placement(in, remap);
  if (balancer_->wants_feedback()) {
    lb::ApplyFeedback feedback;
    if (stats_.migrations != migrations_before) {
      feedback.lb_seconds = event_timer.elapsed();
      feedback.moved_load = moved_load;
      feedback.moved_bytes = stats_.migrated_bytes - migrated_bytes_before;
    }
    balancer_->note_applied(feedback);
  }
  // Measured loads describe the epoch that ended here.
  std::fill(vp_measured_seconds_.begin(), vp_measured_seconds_.end(), 0.0);
}

void Runtime::retire_worker(int worker) {
  PICPRK_EXPECTS(worker >= 0 && worker < config_.workers);
  if (std::binary_search(dead_workers_.begin(), dead_workers_.end(), worker)) return;
  dead_workers_.push_back(worker);
  std::sort(dead_workers_.begin(), dead_workers_.end());
  PICPRK_ASSERT_MSG(static_cast<int>(dead_workers_.size()) < config_.workers,
                    "vpr: every worker retired — nothing left to run VPs");
  // Evacuate immediately through the balancer's degraded path so the
  // next superstep never schedules a VP on the dead worker.
  obs::Phase phase(obs::kPhaseLb, &stats_.lb_seconds, nullptr, lb_hist_);
  const lb::PlacementInput input =
      build_placement_input(current_step_, nullptr, nullptr);
  const std::vector<int> remap = balancer_->supports_degraded()
                                     ? balancer_->rebalance_placement(input)
                                     : lb::evacuate_placement(input);
  apply_placement(input, remap);
  PICPRK_TRACE("vpr: retired worker " << worker << ", " << live_workers()
                                      << " live");
}

}  // namespace picprk::vpr
