// Cross-validation: the performance model's load-evolution must track
// the *real* threaded drivers. The model is exact on column totals (the
// workload rotation is the true dynamics); per-rank loads differ from a
// realised run only by the stochastic y-placement (O(√n) per rank).
#include <gtest/gtest.h>

#include <numeric>

#include "comm/world.hpp"
#include "lb/bounds.hpp"
#include "par/block.hpp"
#include "perfsim/engine.hpp"

namespace {

using picprk::comm::Comm;
using picprk::comm::World;
using picprk::par::DriverConfig;
using picprk::par::DriverResult;
using picprk::perfsim::ColumnWorkload;
using picprk::perfsim::Engine;
using picprk::perfsim::MachineModel;
using picprk::perfsim::RunConfig;
using picprk::pic::Geometric;
using picprk::pic::GridSpec;
using picprk::pic::InitParams;
using picprk::pic::Initializer;

double mean(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

TEST(CrossValidation, StaticImbalanceMatchesRealBaseline) {
  InitParams params;
  params.grid = GridSpec(48, 1.0);
  params.total_particles = 24000;
  params.distribution = Geometric{0.9};

  picprk::par::RunConfig cfg;
  cfg.lb.every = 0;  // baseline: static bounds
  cfg.init = params;
  cfg.steps = 24;
  cfg.sample_every = 1;

  DriverResult real;
  World world(4);
  world.run([&](Comm& comm) {
    const auto r = picprk::par::run_block(comm, cfg);
    if (comm.rank() == 0) real = r;
  });

  const Initializer init(params);
  Engine engine(MachineModel{}, ColumnWorkload::from_initializer(init));
  RunConfig model_cfg;
  model_cfg.steps = 24;
  model_cfg.collect_series = true;
  const auto model = engine.run_static(4, model_cfg);

  ASSERT_FALSE(real.imbalance_series.empty());
  ASSERT_FALSE(model.imbalance_series.empty());
  // Time-averaged imbalance must agree within the y-realisation noise.
  EXPECT_NEAR(mean(model.imbalance_series), mean(real.imbalance_series), 0.12);
}

TEST(CrossValidation, ModelReproducesMeasuredMaxParticles) {
  InitParams params;
  params.grid = GridSpec(48, 1.0);
  params.total_particles = 24000;
  params.distribution = Geometric{0.9};

  picprk::par::RunConfig cfg;
  cfg.lb.every = 0;  // baseline: static bounds
  cfg.init = params;
  cfg.steps = 16;

  DriverResult real;
  World world(4);
  world.run([&](Comm& comm) {
    const auto r = picprk::par::run_block(comm, cfg);
    if (comm.rank() == 0) real = r;
  });

  const Initializer init(params);
  Engine engine(MachineModel{}, ColumnWorkload::from_initializer(init));
  const auto model = engine.run_static(4, RunConfig{16, 1, false, 1});

  EXPECT_NEAR(model.max_particles_final,
              static_cast<double>(real.max_particles_per_rank),
              0.05 * static_cast<double>(real.max_particles_per_rank));
}

TEST(CrossValidation, DiffusionDecisionLogicIsShared) {
  // The model calls the *same* lb::diffuse_bounds as the real driver,
  // so a boundary decision divergence is impossible by construction.
  // Check a representative call to document the shared entry point.
  const auto out = picprk::lb::diffuse_bounds({0, 8, 16}, {900.0, 100.0}, 50.0, 1);
  EXPECT_EQ(out, (std::vector<std::int64_t>{0, 7, 16}));
}

}  // namespace
