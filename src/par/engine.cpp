#include "par/engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

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

/// baseline / diffusion (run_block) and async (run_async): a collective
/// driver on a threadcomm world, stepped through run_resilient, which
/// turns config.resilience into the World, its fault injector and its
/// checkpoint store. The recovery-loop telemetry is reported when any
/// resilience knob is set.
class WorldEngine final : public Engine {
 public:
  WorldEngine(std::string name, RunConfig config, DriverFn driver)
      : Engine(std::move(name), std::move(config)), driver_(std::move(driver)) {}

  RunReport run() override {
    RunReport report;
    report.impl = name_;
    report.result = run_resilient(config_, driver_, &report.ft);
    report.ft_telemetry = config_.resilience.active();
    // "ft/rollbacks", "ft/localized_recoveries" and "ft/replayed_steps"
    // are registered by run_resilient itself on config_.obs.registry.
    if (obs::Registry* reg = config_.obs.registry; reg != nullptr && report.ft_telemetry) {
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
    absorb(report.result);
    return report;
  }

 private:
  DriverFn driver_;
};

/// ampi/vpr: no World; its par::VpHost installs the fault injector and
/// checkpoint store as in-process hooks, recovers by rewinding and
/// pup_unpack-ing, and folds their counters into config_.obs.registry.
class AmpiEngine final : public Engine {
 public:
  explicit AmpiEngine(RunConfig config) : Engine("ampi", std::move(config)) {}

  RunReport run() override {
    RunReport report;
    report.impl = name_;
    report.result = run_ampi(config_);
    absorb(report.result);
    return report;
  }
};

/// Rejects, up front, every knob the named engine would otherwise
/// silently ignore (the table in docs/RESILIENCE.md).
void reject_ignored_knobs(const RunConfig& config) {
  const std::string& impl = config.impl;
  const auto reject = [&](const std::string& knob, const std::string& why) {
    throw std::invalid_argument(impl + " does not accept " + knob + ": " + why);
  };
  const bool serial = impl == "serial";
  const bool world = impl == "baseline" || impl == "diffusion" || impl == "async";
  if ((serial || impl == "baseline") && !config.lb.strategy.empty()) {
    reject("--balancer " + config.lb.strategy,
           impl + " has no load balancer; use --impl diffusion to balance");
  }
  const ResilienceOptions& r = config.resilience;
  for (const ft::FaultSpec& spec : r.plan.specs) {
    const std::string knob = std::string("--faults ") + ft::to_string(spec.kind);
    const bool step_fault =
        spec.kind == ft::FaultKind::Kill || spec.kind == ft::FaultKind::Stall;
    if (serial) reject(knob, "the serial reference injects no faults");
    if (!step_fault && !world) {
      reject(knob, "message faults act on a comm::World's mailboxes, and ampi has none");
    }
    if (step_fault && impl == "async") {
      reject(knob, "async has no checkpoint/rollback ladder; use baseline, "
                   "diffusion or ampi for recovery drills");
    }
    if (spec.kind == ft::FaultKind::Stall && spec.ms <= 0 && impl == "ampi") {
      // ms <= 0 stalls until the world aborts, and a VP has no world.
      reject(knob + " without a finite ms=", "a VP stall would never end");
    }
  }
  if (r.checkpoint_every > 0 && (serial || impl == "async")) {
    reject("--checkpoint-every", impl + " has no checkpoint/rollback ladder");
  }
  if (!world) {
    const char* why = "it acts on a comm::World, and this engine has none";
    if (r.reliable) reject("--reliable", why);
    if (r.timeout_ms > 0) reject("--timeout-ms", why);
    if (r.deadlock_ms > 0) reject("--deadlock-ms", why);
  }
}

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
  const std::string impl = config.impl;
  const std::vector<std::string>& names = engine_names();
  if (std::find(names.begin(), names.end(), impl) == names.end()) {
    std::string known;
    for (const std::string& name : names) {
      if (!known.empty()) known += " | ";
      known += name;
    }
    throw std::invalid_argument("unknown impl: " + impl + " (" + known + ')');
  }
  config.resilience.validate();  // loud cross-knob rejection up front
  reject_ignored_knobs(config);
  if (impl == "serial") return std::make_unique<SerialEngine>(std::move(config));
  if (impl == "ampi") return std::make_unique<AmpiEngine>(std::move(config));
  // Baseline is the block driver with its bounds left static.
  if (impl == "baseline") config.lb.every = 0;
  const DriverFn driver = impl == "async" ? DriverFn(&run_async) : DriverFn(&run_block);
  return std::make_unique<WorldEngine>(impl, std::move(config), driver);
}

}  // namespace picprk::par
