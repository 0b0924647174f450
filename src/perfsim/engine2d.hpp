// 2-D makespan engine over Workload2D: the static and (optionally
// two-phase) diffusion policies for workloads whose skew is not
// y-uniform — rotated distributions, corner patches, y-drift. The
// column engine (engine.hpp) remains the tool for paper-scale grids;
// this one extends the model to the full §III-E space at laptop scale.
#pragma once

#include <vector>

#include <cstdint>

#include "perfsim/engine.hpp"
#include "perfsim/workload2d.hpp"

namespace picprk::perfsim {

struct Run2DConfig {
  std::uint32_t steps = 100;
  std::int64_t shift_x = 1;  ///< (2k+1)
  std::int64_t shift_y = 0;  ///< m
  bool collect_series = false;
  std::uint32_t sample_every = 1;
};

/// y-capable dynamic event.
struct Event2D {
  std::uint32_t step = 0;
  pic::CellRegion region;
  double inject_amount = 0.0;
  double remove_fraction = 0.0;
};

class Engine2D {
 public:
  Engine2D(MachineModel machine, Workload2D workload);

  void set_events(std::vector<Event2D> events) { events_ = std::move(events); }

  double serial_seconds(const Run2DConfig& config) const;

  ModelResult run_static(int cores, const Run2DConfig& config) const;

  /// Diffusion LB; `two_phase` enables the y-direction phase (§IV-B).
  ModelResult run_diffusion(int cores, const Run2DConfig& config,
                            const DiffusionModelParams& lb, bool two_phase) const;

  /// Over-decomposed runtime-balanced execution (the ampi policy) on the
  /// 2-D workload — runtime balancers handle any skew direction, unlike
  /// the x-only diffusion scheme.
  ModelResult run_vpr(int cores, const Run2DConfig& config,
                      const VprModelParams& params) const;

 private:
  void apply_events(Workload2D& w, std::uint32_t step) const;

  MachineModel machine_;
  Workload2D workload_;
  std::vector<Event2D> events_;
};

}  // namespace picprk::perfsim
