// Serial reference simulation of the PIC PRK: the paper-and-pencil
// specification executed directly (initialise → T steps of force+move,
// with optional injection/removal events → verify). This is the ground
// truth the parallel drivers are tested against, and the denominator of
// the speedup numbers in the paper's Figure 6.
#pragma once

#include <cstdint>
#include <vector>

#include "pic/charge.hpp"
#include "pic/events.hpp"
#include "pic/init.hpp"
#include "pic/mover.hpp"
#include "pic/verify.hpp"

namespace picprk::pic {

struct SimulationConfig {
  InitParams init;
  std::uint32_t steps = 10;
  EventSchedule events;
  double verify_epsilon = kVerifyEpsilon;
};

struct SimulationResult {
  VerifyResult verification;
  /// Expected id checksum, maintained through injections/removals.
  std::uint64_t expected_id_checksum = 0;
  std::uint64_t final_particles = 0;
  double seconds = 0.0;  ///< wall time of the timed stepping loop

  bool ok() const { return verification.ok(expected_id_checksum); }
};

/// Runs the serial simulation on the scalar AoS mover.
SimulationResult run_serial(const SimulationConfig& config);

/// One serial time step over a particle vector — exposed so tests can
/// inspect intermediate states.
void serial_step(std::vector<Particle>& particles, const GridSpec& grid,
                 const AlternatingColumnCharges& charges, double dt);

}  // namespace picprk::pic
