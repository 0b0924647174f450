// The benchmark's four workloads, generated from --seed. The program
// under test only ever receives the RunConfig / JobSpec built here.
// perfbench/README.md explains why each workload exists and which layer
// it stresses.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "arith.hpp"
#include "par/run_config.hpp"
#include "svc/spec.hpp"
#include "util/report.hpp"

namespace perfbench {

/// Threads any engine may use: ranks, ampi workers, async ranks and the
/// server's pool all equal this (a 4-core host).
inline constexpr int kThreads = 4;
/// Over-decomposition degree of ampi, async and every serve tenant.
inline constexpr int kOverdecomposition = 4;
/// The second seed, reserved for held-out checks of a claimed gain: never
/// tune or develop against it (run.py --seed heldout selects it).
inline constexpr std::uint64_t kHeldOutSeed = 0x48454C444F5554ull;

/// One kernel instance: its generated inputs and what a correct run of
/// them must produce.
struct Problem {
  std::string name;
  /// Grid, particles, distribution, steps and events; engine-specific
  /// fields (impl, LB, resilience) are filled by engine_config.
  picprk::par::RunConfig base;
  std::string placement_balancer;  ///< ampi / serve-tenant strategy
  double weight = 1.0;             ///< serve fair-share weight
  Census census;
};

struct Workload {
  std::string name;
  std::uint64_t seed = 0;
  std::uint64_t fault_seed = 0;
  std::vector<Problem> problems;  ///< each engine runs each of these
  std::vector<Problem> tenants;   ///< submitted together to one server
  std::uint32_t lb_every = 0;
  std::uint32_t checkpoint_every = 0;
  std::string fault_plan;  ///< message-fault schedule, "" = none
  /// The instance the layer probes take their particles, decomposition
  /// and loads from.
  const Problem& probe() const { return problems.front(); }
};

/// Engines every workload runs, in run order ("serve" is separate).
const std::vector<std::string>& engine_names();

/// Builds workload `name` from `seed`; throws std::invalid_argument for
/// an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed);

/// The complete RunConfig of `engine` on `problem`: the workload's LB
/// cadence with the engine's paper pairing (diffusion / greedy / steal),
/// checkpoints where the engine supports them, the fault schedule and
/// reliable transport on the engines that own a comm::World.
picprk::par::RunConfig engine_config(const Workload& w, const Problem& problem,
                                     const std::string& engine);

picprk::svc::JobSpec tenant_spec(const Workload& w, const Problem& tenant);

/// The generated config of a run: engine, balancer, sizes, events,
/// faults and seeds.
picprk::util::JsonObject describe(const picprk::par::RunConfig& config);

}  // namespace perfbench
