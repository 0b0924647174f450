// Step-by-step trajectory validation: a strictly stronger instrument
// than the end-of-run check of §III-D. The closed form (Eqs. 5–6) holds
// after *every* step, so a tracked particle can be validated
// continuously — which pinpoints the exact step where an implementation
// diverges instead of reporting a failure 6,000 steps later. Used by the
// test suite; cheap enough (O(tracked) per step) to leave on in anger.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "pic/particle.hpp"
#include "pic/verify.hpp"

namespace picprk::pic {

/// Records the first detected divergence of a tracked particle.
struct TrajectoryFault {
  std::uint64_t id = 0;
  std::uint32_t step = 0;     ///< first step after which the check failed
  double error = 0.0;         ///< periodic position error at that step
  double x = 0.0, y = 0.0;    ///< observed position
  double expected_x = 0.0, expected_y = 0.0;
};

class TrajectoryValidator {
 public:
  /// Tracks the given particle ids (initial state captured on the first
  /// check). Empty set = track every particle seen.
  explicit TrajectoryValidator(std::vector<std::uint64_t> ids = {},
                               double epsilon = kVerifyEpsilon);

  /// Checks every tracked particle present in `particles` against the
  /// closed form after `completed_steps` steps. Returns the number of
  /// particles checked. Faults accumulate (first fault per id).
  std::size_t check(std::span<const Particle> particles, const GridSpec& grid,
                    std::uint32_t completed_steps);

  bool ok() const { return faults_.empty(); }
  const std::vector<TrajectoryFault>& faults() const { return faults_; }

  /// Steps × particles validated so far.
  // picprk-lint: suppress(reach: read by TrajectoryValidatorTest.CleanRunHasNoFaults)
  std::uint64_t checks_performed() const { return checks_; }

 private:
  bool tracked(std::uint64_t id) const;

  std::vector<std::uint64_t> ids_;  // sorted; empty = all
  double epsilon_;
  std::vector<TrajectoryFault> faults_;
  std::vector<std::uint64_t> faulted_ids_;
  std::uint64_t checks_ = 0;
};

}  // namespace picprk::pic
