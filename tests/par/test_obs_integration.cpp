// Integration tests for the obs subsystem against a real driver run:
// the per-step imbalance telemetry must match the closed-form load of
// the drifting distribution, and the trace/registry must be populated
// exactly when the build carries telemetry.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "comm/cart.hpp"
#include "comm/world.hpp"
#include "obs/phase.hpp"
#include "obs/registry.hpp"
#include "obs/sinks.hpp"
#include "par/ampi.hpp"
#include "par/block.hpp"
#include "par/decomposition.hpp"
#include "par/driver_common.hpp"
#include "pic/init.hpp"

namespace {

using picprk::comm::Cart2D;
using picprk::comm::Comm;
using picprk::comm::World;
using picprk::obs::Hooks;
using picprk::obs::Registry;
using picprk::obs::StepSample;
using picprk::obs::Trace;
using picprk::par::Decomposition2D;
using picprk::par::DriverResult;
using picprk::par::RunConfig;
using picprk::pic::Geometric;
using picprk::pic::GridSpec;
using picprk::pic::Initializer;

constexpr std::int64_t kCells = 24;
constexpr std::uint64_t kParticles = 20000;
constexpr std::uint32_t kSteps = 12;
constexpr int kRanks = 4;

RunConfig make_config() {
  RunConfig cfg;
  cfg.lb.every = 0;  // the block driver runs as the baseline: static bounds
  cfg.init.grid = GridSpec(kCells, 1.0);
  cfg.init.total_particles = kParticles;
  cfg.init.distribution = Geometric{0.8};  // skewed: lambda > 1 under a 2-D grid
  cfg.init.k = 0;                          // drift: +1 cell per step in x
  cfg.init.m = 0;                          // no vertical drift
  cfg.steps = kSteps;
  cfg.sample_every = 1;
  return cfg;
}

std::int64_t wrap_column(std::int64_t cx) {
  return ((cx % kCells) + kCells) % kCells;
}

/// Closed-form per-rank particle count after the sample at loop step s:
/// the drift has applied s+1 single-cell x-shifts to the initial counts,
/// so the load of a block is the initial count summed over the
/// back-shifted columns.
std::vector<std::uint64_t> expected_rank_loads(const Initializer& init,
                                               const Decomposition2D& decomp,
                                               int ranks, std::uint32_t s) {
  std::vector<std::uint64_t> loads(static_cast<std::size_t>(ranks), 0);
  for (int rank = 0; rank < ranks; ++rank) {
    const auto block = decomp.block_of(rank);
    std::uint64_t total = 0;
    for (std::int64_t cx = block.x0; cx < block.x1; ++cx) {
      const std::int64_t source = wrap_column(cx - static_cast<std::int64_t>(s) - 1);
      for (std::int64_t cy = block.y0; cy < block.y1; ++cy) {
        total += init.count_in_cell(source, cy);
      }
    }
    loads[static_cast<std::size_t>(rank)] = total;
  }
  return loads;
}

double lambda_of(const std::vector<std::uint64_t>& loads) {
  std::uint64_t max = 0, sum = 0;
  for (const auto l : loads) {
    max = std::max(max, l);
    sum += l;
  }
  const double mean = static_cast<double>(sum) / static_cast<double>(loads.size());
  return mean > 0.0 ? static_cast<double>(max) / mean : 1.0;
}

TEST(ObsIntegration, BaselineLambdaMatchesClosedFormPerStep) {
  Registry registry;
  Trace trace;
  RunConfig cfg = make_config();
  cfg.obs = Hooks{&registry, &trace};

  DriverResult result;
  World world(kRanks);
  world.run([&](Comm& comm) {
    const DriverResult r = picprk::par::run_block(comm, cfg);
    if (comm.rank() == 0) result = r;
  });
  ASSERT_TRUE(result.ok);

  if (!picprk::obs::kEnabled) {
    // Telemetry compiled out: drivers fall back to the legacy sampler.
    EXPECT_TRUE(result.step_samples.empty());
    EXPECT_EQ(result.imbalance_series.size(), kSteps);
    return;
  }

  ASSERT_EQ(result.step_samples.size(), kSteps);
  const Initializer init(cfg.init);
  const Cart2D cart(kRanks);
  const Decomposition2D decomp(cfg.init.grid, cart);

  for (std::uint32_t s = 0; s < kSteps; ++s) {
    const StepSample& sample = result.step_samples[s];
    EXPECT_EQ(sample.step, static_cast<int>(s));
    const auto loads = expected_rank_loads(init, decomp, kRanks, s);
    const auto max_it = *std::max_element(loads.begin(), loads.end());
    EXPECT_NEAR(sample.max_load, static_cast<double>(max_it), 1e-9)
        << "step " << s;
    EXPECT_NEAR(sample.lambda, lambda_of(loads), 1e-9) << "step " << s;
    // The legacy series and the telemetry samples are one measurement.
    EXPECT_DOUBLE_EQ(result.imbalance_series[s], sample.lambda);
  }
}

TEST(ObsIntegration, BaselineLambdaTracksAnalyticExpectation) {
  Registry registry;
  Trace trace;
  RunConfig cfg = make_config();
  cfg.obs = Hooks{&registry, &trace};

  DriverResult result;
  World world(kRanks);
  world.run([&](Comm& comm) {
    const DriverResult r = picprk::par::run_block(comm, cfg);
    if (comm.rank() == 0) result = r;
  });
  ASSERT_TRUE(result.ok);
  if (!picprk::obs::kEnabled) GTEST_SKIP() << "telemetry compiled out";

  // Analytic lambda from the distribution's continuous column weights:
  // the realised counts are integer roundings of these expectations, so
  // at 20k particles the sampled ratio must sit within a few percent.
  const auto weights = picprk::pic::column_cell_expectations(cfg.init);
  const Cart2D cart(kRanks);
  const Decomposition2D decomp(cfg.init.grid, cart);
  for (std::uint32_t s = 0; s < kSteps; ++s) {
    std::vector<double> loads(kRanks, 0.0);
    for (int rank = 0; rank < kRanks; ++rank) {
      const auto block = decomp.block_of(rank);
      for (std::int64_t cx = block.x0; cx < block.x1; ++cx) {
        const std::int64_t source = wrap_column(cx - static_cast<std::int64_t>(s) - 1);
        loads[static_cast<std::size_t>(rank)] +=
            weights[static_cast<std::size_t>(source)] *
            static_cast<double>(block.height());
      }
    }
    double max = 0.0, sum = 0.0;
    for (const double l : loads) {
      max = std::max(max, l);
      sum += l;
    }
    const double analytic = max / (sum / kRanks);
    EXPECT_NEAR(result.step_samples[s].lambda, analytic, 0.05 * analytic)
        << "step " << s;
  }
}

TEST(ObsIntegration, ObservedAndDarkRunsProduceTheSameImbalanceSeries) {
  // The telemetry path must not change what is measured: lambda from
  // sample_step_telemetry equals lambda from the legacy sampler.
  RunConfig dark_cfg = make_config();
  DriverResult dark;
  {
    World world(kRanks);
    world.run([&](Comm& comm) {
      const DriverResult r = picprk::par::run_block(comm, dark_cfg);
      if (comm.rank() == 0) dark = r;
    });
  }

  Registry registry;
  Trace trace;
  RunConfig obs_cfg = make_config();
  obs_cfg.obs = Hooks{&registry, &trace};
  DriverResult observed;
  {
    World world(kRanks);
    world.run([&](Comm& comm) {
      const DriverResult r = picprk::par::run_block(comm, obs_cfg);
      if (comm.rank() == 0) observed = r;
    });
  }

  ASSERT_EQ(dark.imbalance_series.size(), observed.imbalance_series.size());
  for (std::size_t i = 0; i < dark.imbalance_series.size(); ++i) {
    EXPECT_DOUBLE_EQ(dark.imbalance_series[i], observed.imbalance_series[i]);
  }
}

TEST(ObsIntegration, BaselineRegistersPerRankInstrumentsAndTraceLanes) {
  Registry registry;
  Trace trace;
  RunConfig cfg = make_config();
  cfg.obs = Hooks{&registry, &trace};

  World world(kRanks);
  world.run([&](Comm& comm) { picprk::par::run_block(comm, cfg); });

  if (!picprk::obs::kEnabled) {
    EXPECT_EQ(registry.size(), 0u);
    EXPECT_EQ(trace.event_count(), 0u);
    return;
  }
  for (int rank = 0; rank < kRanks; ++rank) {
    const std::string prefix = "rank " + std::to_string(rank) + "/";
    const auto* steps = registry.find_counter(prefix + "steps");
    ASSERT_NE(steps, nullptr) << prefix;
    EXPECT_EQ(steps->value(), kSteps);
    const auto* compute = registry.find_histogram(prefix + "phase_compute_seconds");
    ASSERT_NE(compute, nullptr);
    EXPECT_EQ(compute->count(), kSteps);
  }
  // One lane per rank, each with compute + exchange spans per step, and
  // nothing dropped at the drivers' reserve sizing.
  EXPECT_EQ(trace.lane_count(), static_cast<std::size_t>(kRanks));
  EXPECT_GE(trace.event_count(), static_cast<std::uint64_t>(kRanks) * kSteps * 2);
  EXPECT_EQ(trace.dropped_count(), 0u);
  // Exchange conservation: particles received must equal particles sent.
  std::uint64_t sent = 0, received = 0;
  for (const auto& view : registry.counters()) {
    if (view.name.find("exchange_particles_sent") != std::string::npos) sent += view.value;
    if (view.name.find("exchange_particles_received") != std::string::npos) {
      received += view.value;
    }
  }
  EXPECT_EQ(sent, received);
}

TEST(ObsIntegration, AmpiDriverPopulatesSamplesAndVpLanes) {
  Registry registry;
  Trace trace;
  RunConfig acfg = make_config();
  acfg.obs = Hooks{&registry, &trace};
  acfg.workers = 2;
  acfg.overdecomposition = 4;
  acfg.lb.every = 4;

  const auto r = picprk::par::run_ampi(acfg);
  ASSERT_TRUE(r.ok);

  if (!picprk::obs::kEnabled) {
    EXPECT_TRUE(r.step_samples.empty());
    return;
  }
  ASSERT_EQ(r.step_samples.size(), kSteps);
  for (const auto& sample : r.step_samples) {
    EXPECT_GE(sample.lambda, 1.0);
    EXPECT_GT(sample.max_load, 0.0);
  }
  // The vpr runtime registers one lane per VP (pid 1) plus the driver
  // lane (pid 0), and its canonical instruments.
  EXPECT_GE(trace.lane_count(), static_cast<std::size_t>(acfg.workers *
                                                         acfg.overdecomposition));
  EXPECT_NE(registry.find_histogram("vpr/phase_step_seconds"), nullptr);
  EXPECT_NE(registry.find_counter("vpr/messages"), nullptr);
}

}  // namespace
