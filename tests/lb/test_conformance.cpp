// Strategy conformance suite — the contract every registry entry must
// honour, enforced over the REAL drivers:
//
//  * physics preservation: under any registered strategy, the drivers
//    still pass the closed-form position verification (Eqs. 5–6) and
//    the id checksum Σid = n(n+1)/2, on all five §III-E distributions
//    and on a run with mid-flight injection/removal events;
//  * determinism: decisions are pure functions of their input — two
//    independently constructed instances ("two ranks") replay the
//    identical plan bit for bit, including measurement-driven
//    strategies fed identical (allreduced) feedback;
//  * behaviour pinning: the pre-refactor defaults of the diffusion and
//    ampi drivers are reproduced exactly (λ series, LB actions,
//    exchange counts, checksum) — the adapters changed the plumbing,
//    not the physics.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "comm/world.hpp"
#include "lb/registry.hpp"
#include "lb/strategy.hpp"
#include "par/ampi.hpp"
#include "par/block.hpp"
#include "util/rng.hpp"

namespace {

using picprk::comm::Comm;
using picprk::comm::World;
using picprk::lb::BoundsInput;
using picprk::lb::Descriptor;
using picprk::lb::PlacementInput;
using picprk::par::DriverResult;
using picprk::par::RunConfig;
using picprk::pic::CellRegion;
using picprk::pic::EventSchedule;
using picprk::pic::InjectionEvent;
using picprk::pic::RemovalEvent;
using picprk::util::SplitMix64;

// The five §III-E distributions plus the dynamic-population run.
constexpr int kCases = 6;

RunConfig case_config(int kind) {
  RunConfig cfg;
  cfg.init.grid = picprk::pic::GridSpec(20, 1.0);
  cfg.init.total_particles = 700;
  cfg.steps = 20;
  cfg.lb.every = 4;
  switch (kind) {
    case 0: cfg.init.distribution = picprk::pic::Uniform{}; break;
    case 1: cfg.init.distribution = picprk::pic::Geometric{0.85}; break;
    case 2: cfg.init.distribution = picprk::pic::Sinusoidal{}; break;
    case 3: cfg.init.distribution = picprk::pic::Linear{1.0, 1.2}; break;
    case 4: cfg.init.distribution = picprk::pic::Patch{CellRegion{2, 12, 4, 16}}; break;
    default:
      // Uniform start + injection and removal mid-run: the checksum must
      // track the changing population exactly.
      cfg.init.distribution = picprk::pic::Uniform{};
      cfg.events = EventSchedule({InjectionEvent{6, CellRegion{0, 10, 0, 10}, 250}},
                                 {RemovalEvent{14, CellRegion{5, 20, 0, 20}, 0.4}});
      break;
  }
  return cfg;
}

std::string case_tag(int kind) {
  switch (kind) {
    case 0: return "uniform";
    case 1: return "geometric";
    case 2: return "sinusoidal";
    case 3: return "linear";
    case 4: return "patch";
    default: return "events";
  }
}

/// Runs one strategy through the boundary driver and checks Σid + Eqs.
/// 5–6. The checksum identity Σid = n(n+1)/2 is what
/// expected_id_checksum holds (adjusted for injected/removed ids).
void check_bounds_strategy(const std::string& spec, int kind) {
  RunConfig cfg = case_config(kind);
  cfg.lb.strategy = spec;
  World world(4);
  world.run([&](Comm& comm) {
    const DriverResult r = picprk::par::run_block(comm, cfg);
    EXPECT_TRUE(r.ok) << spec << " on " << case_tag(kind)
                      << ": failures=" << r.verification.position_failures;
    EXPECT_EQ(r.verification.id_checksum, r.expected_id_checksum)
        << spec << " on " << case_tag(kind);
  });
}

void check_placement_strategy(const std::string& spec, int kind) {
  RunConfig cfg = case_config(kind);
  cfg.lb.strategy = spec;
  cfg.workers = 2;
  cfg.overdecomposition = 4;
  const DriverResult r = picprk::par::run_ampi(cfg);
  EXPECT_TRUE(r.ok) << spec << " on " << case_tag(kind)
                    << ": failures=" << r.verification.position_failures;
  EXPECT_EQ(r.verification.id_checksum, r.expected_id_checksum)
      << spec << " on " << case_tag(kind);
}

class EveryStrategy : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Cases, EveryStrategy, ::testing::Range(0, kCases),
                         [](const auto& info) { return case_tag(info.param); });

TEST_P(EveryStrategy, PreservesPhysicsInItsDrivers) {
  for (const Descriptor& d : picprk::lb::registered_strategies()) {
    if (d.bounds) check_bounds_strategy(d.name, GetParam());
    if (d.placement) check_placement_strategy(d.name, GetParam());
  }
}

// ------------------------------------------------------- determinism

BoundsInput random_bounds_input(SplitMix64& rng) {
  BoundsInput in;
  const int parts = 2 + static_cast<int>(rng.next_below(6));
  const std::int64_t cells = 8 * parts;
  in.step = static_cast<std::uint32_t>(rng.next_below(100));
  in.interval_steps = 4;
  in.bounds.resize(static_cast<std::size_t>(parts) + 1);
  for (int i = 0; i <= parts; ++i) {
    in.bounds[static_cast<std::size_t>(i)] = i * cells / parts;
  }
  in.loads.resize(static_cast<std::size_t>(parts));
  for (auto& l : in.loads) l = static_cast<double>(rng.next_below(5000));
  return in;
}

PlacementInput random_placement_input(SplitMix64& rng) {
  PlacementInput in;
  in.workers = 2 + static_cast<int>(rng.next_below(4));
  in.step = static_cast<std::uint32_t>(rng.next_below(100));
  in.interval_steps = 4;
  const int vps = in.workers * 3;
  in.parts.resize(static_cast<std::size_t>(vps));
  for (int v = 0; v < vps; ++v) {
    auto& p = in.parts[static_cast<std::size_t>(v)];
    p.part = v;
    p.load = static_cast<double>(rng.next_below(1000));
    p.owner = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(in.workers)));
    p.neighbors = {(v + 1) % vps, (v + vps - 1) % vps};
  }
  return in;
}

TEST(Determinism, TwoRanksReplayIdenticalPlans) {
  // Model two ranks as two independently constructed instances of every
  // strategy. Feed both the identical observation sequence (what the
  // allreduce guarantees in the drivers) and require bit-for-bit equal
  // plans at every round — including feedback-driven strategies, whose
  // note_applied() input is also identical on every rank by contract.
  for (const Descriptor& d : picprk::lb::registered_strategies()) {
    auto rank_a = picprk::lb::make_strategy(d.name);
    auto rank_b = picprk::lb::make_strategy(d.name);
    SplitMix64 rng(2026);
    for (int round = 0; round < 20; ++round) {
      if (d.bounds) {
        const BoundsInput in = random_bounds_input(rng);
        const auto plan_a = rank_a->rebalance_bounds(in);
        const auto plan_b = rank_b->rebalance_bounds(in);
        ASSERT_EQ(plan_a, plan_b) << d.name << " bounds round " << round;
      }
      if (d.placement) {
        const PlacementInput in = random_placement_input(rng);
        const auto plan_a = rank_a->rebalance_placement(in);
        const auto plan_b = rank_b->rebalance_placement(in);
        ASSERT_EQ(plan_a, plan_b) << d.name << " placement round " << round;
      }
      if (rank_a->wants_feedback()) {
        picprk::lb::ApplyFeedback fb;
        fb.lb_seconds = 0.001 * static_cast<double>(rng.next_below(100));
        fb.moved_load = static_cast<double>(rng.next_below(2000));
        fb.moved_bytes = rng.next_below(1 << 20);
        rank_a->note_applied(fb);
        rank_b->note_applied(fb);
      }
    }
  }
}

// -------------------------------------------------- behaviour pinning

/// The pre-refactor golden numbers for the default diffusion driver
/// (cells 32, n 4000, geometric 0.9, 48 steps, sample every 8, 4 ranks)
/// captured from the seed implementation. The strategy adapters must
/// reproduce them bit for bit.
TEST(GoldenPin, DiffusionDefaultsReproduceSeedBehaviour) {
  RunConfig cfg;
  cfg.init.grid = picprk::pic::GridSpec(32, 1.0);
  cfg.init.total_particles = 4000;
  cfg.init.distribution = picprk::pic::Geometric{0.9};
  cfg.steps = 48;
  cfg.sample_every = 8;
  cfg.ranks = 4;
  DriverResult result;
  World world(4);
  world.run([&](Comm& comm) {
    const DriverResult r = picprk::par::run_block(comm, cfg);
    if (comm.rank() == 0) result = r;
  });
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.verification.id_checksum, 7898325u);
  EXPECT_EQ(result.particles_exchanged, 11946u);
  EXPECT_EQ(result.lb_actions, 8u);
  const std::vector<double> expected = {
      1.6618017111222949, 1.198792148968294,  1.6567689984901861,
      1.1816809260191243, 1.6618017111222949, 1.198792148968294};
  ASSERT_EQ(result.imbalance_series.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_DOUBLE_EQ(result.imbalance_series[i], expected[i]) << "sample " << i;
  }
}

TEST(GoldenPin, AmpiDefaultsReproduceSeedBehaviour) {
  RunConfig cfg;
  cfg.init.grid = picprk::pic::GridSpec(32, 1.0);
  cfg.init.total_particles = 4000;
  cfg.init.distribution = picprk::pic::Geometric{0.9};
  cfg.steps = 48;
  cfg.sample_every = 8;
  cfg.workers = 2;
  cfg.overdecomposition = 4;
  const DriverResult r = picprk::par::run_ampi(cfg);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.verification.id_checksum, 7898325u);
  EXPECT_EQ(r.lb_actions, 6u);
  ASSERT_EQ(r.imbalance_series.size(), 6u);
  for (std::size_t i = 0; i < r.imbalance_series.size(); ++i) {
    EXPECT_DOUBLE_EQ(r.imbalance_series[i], 1.0005032712632109) << "sample " << i;
  }
}

}  // namespace
