// The benchmark's own arithmetic, kept apart from the measuring code so
// the self-tests (selftest.cpp) can pin it: the particle-step census a
// throughput figure is divided by, the set-up subtraction, and the
// median every reported value goes through.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "pic/events.hpp"
#include "pic/init.hpp"

namespace perfbench {

/// What a correct run of one kernel instance must do, derived from its
/// generated inputs alone (never from the program under test).
struct Census {
  std::uint64_t initial_particles = 0;
  /// Σ over steps of the particles alive during that step, after the
  /// step's injection/removal events — the work a run performs.
  std::uint64_t particle_steps = 0;
  std::uint64_t final_particles = 0;
  /// Σ id of the survivors: the closed-form id checksum the kernel's
  /// verification must reproduce.
  std::uint64_t final_id_sum = 0;
};

/// Replays the inputs' events against the closed-form trajectories
/// (paper Eqs. 5–6): removals at step s see every particle where it sits
/// after s completed steps, then injections at s append newborns. Events
/// apply at the start of their step, so the step itself counts the
/// post-event population. Without events this is O(1).
Census census(const picprk::pic::InitParams& params,
              const picprk::pic::EventSchedule& events, std::uint32_t steps);

/// One engine run as seen from outside: wall time of make_engine + run,
/// and the stepping seconds its RunReport returned.
struct RunTiming {
  double wall_seconds = 0.0;
  double stepping_seconds = 0.0;
};

/// Wall time spent outside the stepping loops: Σ (wall − stepping) over
/// the runs, plus any extra set-up wall time (the server's submits).
double setup_seconds(std::span<const RunTiming> runs, double extra_seconds = 0.0);

/// Median of the values (mean of the middle pair for even counts).
/// Empty input is a caller bug.
double median(std::vector<double> values);

/// Deterministic 64-bit mixer (splitmix64) used to derive every input
/// seed of a workload from the benchmark's --seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

}  // namespace perfbench
