#include "par/engine.hpp"

#include <stdexcept>
#include <utility>

#include "comm/world.hpp"
#include "ft/checkpoint.hpp"
#include "ft/fault.hpp"
#include "obs/registry.hpp"
#include "par/ampi.hpp"
#include "par/async.hpp"
#include "par/block.hpp"
#include "pic/simulation.hpp"
#include "util/report.hpp"
#include "util/table.hpp"

namespace picprk::par {

namespace {

/// Copies every counter of a per-instance registry (fault injector,
/// checkpoint store) into the run registry for export.
void absorb_counters(obs::Registry& registry, const obs::Registry& source) {
  for (const auto& view : source.counters()) {
    registry.register_counter(view.name).add(view.value);
  }
}

/// The serial reference kernel behind the Engine interface. Maps the
/// SimulationResult onto the DriverResult fields it populates; the
/// parallel-only fields stay zero and serial's RESULT line keeps its
/// historical base-quartet shape.
class SerialEngine final : public Engine {
 public:
  explicit SerialEngine(RunConfig config)
      : Engine("serial", std::move(config)) {}

  RunReport run() override {
    pic::SimulationConfig cfg;
    cfg.init = config_.init;
    cfg.steps = config_.steps;
    cfg.events = config_.events;
    cfg.verify_epsilon = config_.verify_epsilon;
    const pic::SimulationResult r = pic::run_serial(cfg);

    RunReport report;
    report.impl = name_;
    report.result.verification = r.verification;
    report.result.expected_id_checksum = r.expected_id_checksum;
    report.result.ok = r.ok();
    report.result.final_particles = r.final_particles;
    report.result.seconds = r.seconds;
    return report;
  }
};

/// baseline / diffusion: the block driver on a threadcomm world per run,
/// optionally wrapped in the run_resilient recovery loop when any
/// resilience knob is set.
class WorldEngine final : public Engine {
 public:
  WorldEngine(std::string name, RunConfig config)
      : Engine(std::move(name), std::move(config)) {}

  RunReport run() override {
    RunReport report;
    report.impl = name_;
    if (config_.resilience.active()) {
      report.ft_telemetry = true;
      report.result = run_resilient(config_, &run_block, &report.ft);
      // "ft/rollbacks", "ft/localized_recoveries" and "ft/replayed_steps"
      // are registered by run_resilient itself on config_.obs.registry.
      if (obs::Registry* reg = config_.obs.registry) {
        reg->register_counter("ft/dropped").add(report.ft.dropped);
        reg->register_counter("ft/duplicated").add(report.ft.duplicated);
        reg->register_counter("ft/delayed").add(report.ft.delayed);
        reg->register_counter("ft/kills").add(report.ft.kills);
        reg->register_counter("ft/stalls").add(report.ft.stalls);
        reg->register_counter("ft/checkpoint_saves").add(report.ft.checkpoint_saves);
        reg->register_counter("ft/residual_messages").add(report.ft.residual_messages);
        reg->register_counter("ft/retransmits").add(report.ft.retransmits);
        reg->register_counter("ft/dup_dropped").add(report.ft.dup_dropped);
        reg->register_counter("ft/abandoned").add(report.ft.abandoned);
      }
    } else {
      comm::World world(config_.ranks);
      world.run([&](comm::Comm& comm) {
        DriverResult r = run_block(comm, config_);
        if (comm.rank() == 0) report.result = r;
      });
    }
    absorb(report.result);
    return report;
  }
};

/// ampi/vpr: no World, so the fault injector and checkpoint store are
/// installed as in-process hooks; the driver recovers by rewinding and
/// pup_unpack-ing. Their metrics registries are folded into the run
/// registry after the fact.
class AmpiEngine final : public Engine {
 public:
  explicit AmpiEngine(RunConfig config) : Engine("ampi", std::move(config)) {}

  RunReport run() override {
    ft::FaultInjector injector(config_.resilience.plan);
    ft::CheckpointStore store;
    RunConfig cfg = config_;
    const bool resilient = cfg.resilience.active();
    if (resilient) {
      cfg.ft.injector = cfg.resilience.plan.empty() ? nullptr : &injector;
      cfg.ft.store = cfg.resilience.checkpoint_every > 0 ? &store : nullptr;
      cfg.ft.checkpoint_every = cfg.resilience.checkpoint_every;
    }
    RunReport report;
    report.impl = name_;
    report.result = run_ampi(cfg);
    absorb(report.result);
    if (obs::Registry* reg = config_.obs.registry; reg != nullptr && resilient) {
      absorb_counters(*reg, injector.metrics());
      absorb_counters(*reg, store.metrics());
    }
    return report;
  }
};

/// The queue-driven engine (par/async.hpp). Message faults and the
/// reliable transport are wired inside run_async itself; kill/stall
/// plans and checkpointing are rejected there with invalid_argument.
class AsyncEngine final : public Engine {
 public:
  explicit AsyncEngine(RunConfig config) : Engine("async", std::move(config)) {}

  RunReport run() override {
    RunReport report;
    report.impl = name_;
    report.result = run_async(config_);
    absorb(report.result);
    return report;
  }
};

}  // namespace

Engine::Engine(std::string name, RunConfig config)
    : name_(std::move(name)), config_(std::move(config)) {}

void Engine::absorb(const DriverResult& r) const {
  obs::Registry* registry = config_.obs.registry;
  if (registry == nullptr) return;
  registry->register_gauge("run/seconds").set(r.seconds);
  registry->register_gauge("run/final_particles")
      .set(static_cast<double>(r.final_particles));
  registry->register_gauge("run/max_particles_per_rank")
      .set(static_cast<double>(r.max_particles_per_rank));
  registry->register_gauge("run/phase_compute_seconds").set(r.phases.compute);
  registry->register_gauge("run/phase_exchange_seconds").set(r.phases.exchange);
  registry->register_gauge("run/phase_lb_seconds").set(r.phases.lb);
  registry->register_gauge("run/phase_checkpoint_seconds").set(r.phases.checkpoint);
  registry->register_counter("run/particles_exchanged").add(r.particles_exchanged);
  registry->register_counter("run/exchange_bytes").add(r.exchange_bytes);
  registry->register_counter("run/lb_actions").add(r.lb_actions);
  registry->register_counter("run/checkpoints").add(r.checkpoints);
  registry->register_counter("run/recoveries").add(r.recoveries);
}

std::string RunReport::human_summary() const {
  std::string extra;
  if (impl == "serial") {
    extra = "max err " +
            util::Table::fmt(result.verification.max_position_error, 9);
  } else if (impl == "ampi") {
    extra = std::to_string(result.lb_actions) + " migrations, max/worker " +
            std::to_string(result.max_particles_per_rank);
  } else {
    extra = std::to_string(result.particles_exchanged) +
            " exchanged, max/rank " +
            std::to_string(result.max_particles_per_rank);
  }
  std::string line = impl;
  line += ": ";
  line += result.ok ? "VERIFIED" : "VERIFICATION FAILED";
  line += " — " + std::to_string(result.final_particles) + " particles, " +
          util::Table::fmt(result.seconds, 3) + " s";
  if (!extra.empty()) line += " (" + extra + ')';
  return line;
}

std::string RunReport::result_line() const {
  util::ResultLine line(impl);
  line.add("status", result.ok ? "pass" : "fail")
      .add("particles", result.final_particles)
      .add("seconds", result.seconds);
  if (impl != "serial") {
    line.add("checksum", result.verification.id_checksum)
        .add("expected", result.expected_id_checksum)
        .add("exchanged", result.particles_exchanged)
        .add("checkpoints", result.checkpoints)
        .add("checkpoint_bytes", result.checkpoint_bytes)
        .add("recoveries", static_cast<std::uint64_t>(result.recoveries))
        .add("localized", static_cast<std::uint64_t>(result.localized_recoveries))
        .add("replayed", static_cast<std::uint64_t>(result.replayed_steps));
  }
  if (ft_telemetry) {
    line.add("rollbacks", static_cast<std::uint64_t>(ft.rollbacks))
        .add("retransmits", ft.retransmits)
        .add("dup_dropped", ft.dup_dropped);
  }
  if (impl != "serial") {
    line.add("exchange_bytes", result.exchange_bytes)
        .add("lb_actions", result.lb_actions)
        .add("lb_bytes", result.lb_bytes);
  }
  return line.str();
}

const std::vector<std::string>& engine_names() {
  static const std::vector<std::string> names = {"serial", "baseline",
                                                 "diffusion", "ampi", "async"};
  return names;
}

std::unique_ptr<Engine> make_engine(RunConfig config) {
  config.resilience.validate();  // loud cross-knob rejection up front
  const std::string impl = config.impl;
  if (impl == "serial") return std::make_unique<SerialEngine>(std::move(config));
  if (impl == "baseline" || impl == "diffusion") {
    if (impl == "baseline") {
      // Baseline is the block driver with its bounds left static.
      if (!config.lb.strategy.empty()) {
        throw std::invalid_argument("baseline has no load balancer (got '" +
                                    config.lb.strategy +
                                    "'); use --impl diffusion to balance");
      }
      config.lb.every = 0;
    }
    return std::make_unique<WorldEngine>(impl, std::move(config));
  }
  if (impl == "ampi") return std::make_unique<AmpiEngine>(std::move(config));
  if (impl == "async") return std::make_unique<AsyncEngine>(std::move(config));
  std::string known;
  for (const std::string& name : engine_names()) {
    if (!known.empty()) known += " | ";
    known += name;
  }
  throw std::invalid_argument("unknown impl: " + impl + " (" + known + ')');
}

}  // namespace picprk::par
