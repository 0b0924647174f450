// One front door for every driver: `make_engine(config)` resolves
// `config.impl` to an Engine whose run() owns the whole lifecycle —
// knob validation, the resilient re-run loop (par::run_resilient for
// the World-backed baseline, diffusion and async; par::VpHost for ampi),
// telemetry absorption into the run registry — and returns a typed
// RunReport. The CLI and the job server stop switch-casing on driver
// names, and the RESULT-line grammar is rendered in exactly one place
// (RunReport::result_line over util::ResultLine) instead of being
// re-emitted ad hoc per entry point.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "par/resilient.hpp"
#include "par/run_config.hpp"

namespace picprk::par {

/// Everything a finished run reports, in one typed record. The text
/// renderings (human_summary / result_line) live here so every entry
/// point — tools/picprk, svc::Server, benches — prints the same grammar.
struct RunReport {
  std::string impl;     ///< engine name that produced this report
  DriverResult result;  ///< merged driver result (identical on all ranks)
  /// Recovery-loop observations of the World-backed engines. Only
  /// meaningful when `ft_telemetry` is set (a resilience knob was set);
  /// ampi handles faults in-process and reports through `result` instead.
  ResilienceTelemetry ft;
  bool ft_telemetry = false;

  /// 0 on verified success, 1 on verification failure (the tool's
  /// contract; typed comm/ft failures surface as exceptions instead).
  int exit_code() const { return result.ok ? 0 : 1; }

  /// "<impl>: VERIFIED — N particles, S s (extra)" — the per-impl
  /// banner line the CLI has always printed.
  std::string human_summary() const;

  /// "RESULT impl=... status=... key=value ..." (no newline). Keys and
  /// formats are stable: serial emits the base quartet, the parallel
  /// drivers append the checksum/exchange/resilience tail, and resilient
  /// runs append the recovery-loop counters.
  std::string result_line() const;
};

/// A configured, runnable kernel. Engines are single-shot: construct
/// via make_engine, call run() once, read the report.
class Engine {
 public:
  virtual ~Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Runs the kernel to completion. Collective failures (CommTimeout,
  /// RankKilled, DeadlockDetected) propagate to the caller.
  virtual RunReport run() = 0;

  /// Registry name ("serial", "baseline", ...).
  const std::string& name() const { return name_; }

 protected:
  Engine(std::string name, RunConfig config);

  /// Folds the finished result (and per-impl fault counters) into
  /// config_.obs.registry when one is attached; no-op when running dark.
  void absorb(const DriverResult& result) const;

  std::string name_;
  RunConfig config_;
};

/// Engine names in pipeline order — the value set of RunConfig::impl.
const std::vector<std::string>& engine_names();

/// Resolves config.impl against the engine table. Validates the knobs
/// up front; throws std::invalid_argument for an unknown impl, a
/// nonsensical knob combination, or a knob the engine would silently
/// ignore (naming the knob and the engine; docs/RESILIENCE.md §7).
std::unique_ptr<Engine> make_engine(RunConfig config);

}  // namespace picprk::par
