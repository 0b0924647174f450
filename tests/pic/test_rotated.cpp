// The 90°-rotated distributions (§III-E1: a row-skewed cloud defeats any
// balancing restricted to the drift direction).
#include <gtest/gtest.h>

#include "comm/world.hpp"
#include "par/block.hpp"
#include "perfsim/workload.hpp"
#include "pic/simulation.hpp"

namespace {

using picprk::comm::Comm;
using picprk::comm::World;
using picprk::par::DriverConfig;
using picprk::par::RunConfig;
using picprk::par::DriverResult;
using picprk::pic::Geometric;
using picprk::pic::GridSpec;
using picprk::pic::InitParams;
using picprk::pic::Initializer;

InitParams rotated_params(std::int64_t cells, std::uint64_t n, double r) {
  InitParams p;
  p.grid = GridSpec(cells, 1.0);
  p.total_particles = n;
  p.distribution = Geometric{r};
  p.rotate90 = true;
  return p;
}

TEST(RotatedInit, SkewMovesToRows) {
  const Initializer init(rotated_params(40, 20000, 0.85));
  // Row 0 must hold much more than row 30; columns must be ~flat.
  std::uint64_t row0 = 0, row30 = 0;
  for (std::int64_t cx = 0; cx < 40; ++cx) {
    row0 += init.count_in_cell(cx, 0);
    row30 += init.count_in_cell(cx, 30);
  }
  EXPECT_GT(row0, row30 * 20);
  // Column totals all within a small factor of each other.
  std::uint64_t cmin = UINT64_MAX, cmax = 0;
  for (std::int64_t cx = 0; cx < 40; ++cx) {
    cmin = std::min(cmin, init.column_total(cx));
    cmax = std::max(cmax, init.column_total(cx));
  }
  EXPECT_LT(static_cast<double>(cmax), 1.5 * static_cast<double>(cmin));
}

TEST(RotatedInit, ExpectationMatchesUnrotatedTranspose) {
  InitParams rot = rotated_params(30, 9000, 0.9);
  InitParams straight = rot;
  straight.rotate90 = false;
  const Initializer a(rot), b(straight);
  for (std::int64_t i = 0; i < 30; i += 5) {
    for (std::int64_t j = 0; j < 30; j += 5) {
      EXPECT_DOUBLE_EQ(a.expected_in_cell(i, j), b.expected_in_cell(j, i));
    }
  }
}

TEST(RotatedSerial, Verifies) {
  picprk::pic::SimulationConfig cfg;
  cfg.init = rotated_params(32, 2000, 0.9);
  cfg.init.k = 0;
  cfg.init.m = 1;
  cfg.steps = 40;
  EXPECT_TRUE(picprk::pic::run_serial(cfg).ok());
}

TEST(RotatedDrivers, XOnlyDiffusionCannotFixRowSkew) {
  // The defining property: the skew lives in y, the drift in x, so an
  // x-only diffusion balancer is structurally unable to help while the
  // two-phase variant can.
  World world(4);  // 2×2 process grid
  world.run([](Comm& comm) {
    RunConfig cfg;
    cfg.init = rotated_params(32, 6000, 0.8);
    cfg.steps = 60;
    cfg.sample_every = 5;
    cfg.lb.every = 0;  // baseline: static bounds

    const DriverResult base = picprk::par::run_block(comm, cfg);

    RunConfig xonly = cfg;
    xonly.lb.strategy = "diffusion:threshold=0.05,border=2";
    xonly.lb.every = 4;
    const DriverResult x = picprk::par::run_block(comm, xonly);

    RunConfig both = xonly;
    both.lb.strategy = "diffusion:threshold=0.05,border=2,two_phase=1";
    const DriverResult xy = picprk::par::run_block(comm, both);

    ASSERT_TRUE(base.ok);
    ASSERT_TRUE(x.ok);
    ASSERT_TRUE(xy.ok);

    auto mean = [](const std::vector<double>& v) {
      double s = 0;
      for (double val : v) s += val;
      return s / static_cast<double>(v.size());
    };
    const double base_imb = mean(base.imbalance_series);
    const double x_imb = mean(x.imbalance_series);
    const double xy_imb = mean(xy.imbalance_series);

    // x-only: no meaningful improvement (row loads are untouched by
    // x-boundary moves).
    EXPECT_GT(x_imb, base_imb * 0.9);
    // two-phase: clear improvement.
    EXPECT_LT(xy_imb, base_imb * 0.8);
    EXPECT_LT(xy_imb, x_imb);
  });
}

TEST(RotatedWorkloadModel, RejectedByColumnModel) {
  EXPECT_THROW(picprk::perfsim::ColumnWorkload::from_expected(
                   rotated_params(20, 1000, 0.9)),
               picprk::ContractViolation);
}

}  // namespace
