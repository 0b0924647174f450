// One engine run or one server batch, driven through the program's public
// entry points (par::make_engine(...)->run(), svc::Server::submit/drain)
// and checked against the workload's own census.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "arith.hpp"
#include "obs/phase.hpp"
#include "par/engine.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Process user+sys CPU seconds so far (getrusage).
double process_cpu_seconds();
/// Peak resident set of this process in MB (getrusage ru_maxrss).
double peak_rss_mb();

struct EngineRun {
  std::string engine;
  const Problem* problem = nullptr;
  RunTiming timing;
  double cpu_seconds = 0.0;
  picprk::par::RunReport report;
  bool verified = false;
  std::string error;  ///< set when verification failed or the run threw

  double imbalance() const;
};

/// Runs `engine` on `problem`. `hooks` attaches telemetry (traced mode
/// only); `sample_every` > 0 also samples the λ series.
EngineRun run_engine(const Workload& w, const Problem& problem, const std::string& engine,
                     const picprk::obs::Hooks& hooks = {},
                     std::uint32_t sample_every = 0);

struct TenantRun {
  std::string name;
  std::uint64_t id_checksum = 0;
  bool verified = false;
  std::string error;
  double step_ms_p50 = 0.0;  ///< from the job's own svc/step_seconds histogram
  double step_ms_p95 = 0.0;
  double cost_per_step = 0.0;
};

struct ServeRun {
  double submit_seconds = 0.0;  ///< wall time of the Server::submit calls
  double drain_seconds = 0.0;   ///< wall time of Server::drain
  double cpu_seconds = 0.0;
  std::uint64_t particle_steps = 0;  ///< Σ over tenants, from the census
  std::vector<TenantRun> tenants;
  std::uint32_t cycles = 0;
  std::uint64_t pool_tasks = 0;
  std::uint64_t pool_steals = 0;
  std::string error;
};

/// Submits the workload's tenants to one kThreads-worker server, all at
/// once, then drains (a closed batch).
ServeRun run_serve(const Workload& w);

/// The failed items of one repetition, one message each: an engine run or
/// tenant fails when it did not verify against the census, or when its
/// id checksum differs from the first run of the same problem (every
/// engine moves the same generated particles).
std::vector<std::string> failures(const std::vector<EngineRun>& runs,
                                  const ServeRun& serve);

}  // namespace perfbench
