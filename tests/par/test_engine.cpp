// The Engine facade: make_engine must cover every driver behind one
// interface, and RunReport must render the one RESULT grammar every
// entry point shares. These tests pin the key set per impl so a drive-by
// change to the line format breaks here, not in a CI grep.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>

#include "ft/fault.hpp"
#include "par/engine.hpp"
#include "pic/init.hpp"

namespace {

using picprk::par::Engine;
using picprk::par::RunConfig;
using picprk::par::RunReport;
using picprk::par::engine_names;
using picprk::par::make_engine;

RunConfig small_config(const std::string& impl) {
  RunConfig cfg;
  cfg.impl = impl;
  cfg.init.grid = picprk::pic::GridSpec(24, 1.0);
  cfg.init.total_particles = 600;
  cfg.init.distribution = picprk::pic::Geometric{0.9};
  cfg.steps = 12;
  cfg.ranks = 2;
  cfg.workers = 2;
  cfg.overdecomposition = 2;
  cfg.lb.every = 4;
  if (impl == "async") cfg.lb.strategy = "steal";
  return cfg;
}

bool has_key(const std::string& line, const std::string& key) {
  return line.find(' ' + key + '=') != std::string::npos;
}

TEST(Engine, NamesCoverEveryDriver) {
  const auto& names = engine_names();
  for (const char* expected :
       {"serial", "baseline", "diffusion", "ampi", "async"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
}

TEST(Engine, UnknownImplThrows) {
  EXPECT_THROW(make_engine(small_config("model")), std::invalid_argument);
  EXPECT_THROW(make_engine(small_config("")), std::invalid_argument);
}

TEST(Engine, InvalidResilienceKnobsThrowAtConstruction) {
  RunConfig cfg = small_config("baseline");
  cfg.resilience.reliable = true;
  cfg.resilience.rto_ms = 0;
  EXPECT_THROW(make_engine(cfg), std::invalid_argument);
}

TEST(Engine, BaselineRejectsABalancer) {
  // Baseline is the block driver with static bounds; a balancer there
  // would be silently ignored, so it is refused and diffusion is named.
  RunConfig cfg = small_config("baseline");
  cfg.lb.strategy = "rcb";
  try {
    (void)make_engine(cfg);
    FAIL() << "baseline accepted a balancer";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--impl diffusion"), std::string::npos)
        << e.what();
  }
  // A bare cadence stays accepted (the CLI default is 16).
  cfg.lb.strategy.clear();
  cfg.lb.every = 16;
  EXPECT_NO_THROW((void)make_engine(cfg));
}

class EveryEngine : public ::testing::TestWithParam<std::string> {};
INSTANTIATE_TEST_SUITE_P(Impls, EveryEngine,
                         ::testing::ValuesIn(engine_names()),
                         [](const auto& info) { return info.param; });

TEST_P(EveryEngine, RunsAndReportsPass) {
  const std::string impl = GetParam();
  const auto engine = make_engine(small_config(impl));
  EXPECT_EQ(engine->name(), impl);
  const RunReport report = engine->run();
  EXPECT_TRUE(report.result.ok);
  EXPECT_EQ(report.exit_code(), 0);
  EXPECT_FALSE(report.ft_telemetry);

  const std::string line = report.result_line();
  EXPECT_EQ(line.rfind("RESULT impl=" + impl + " ", 0), 0u) << line;
  EXPECT_TRUE(has_key(line, "status")) << line;
  EXPECT_TRUE(has_key(line, "particles")) << line;
  EXPECT_TRUE(has_key(line, "seconds")) << line;
  // The checksum tail belongs to the parallel drivers only.
  EXPECT_EQ(has_key(line, "checksum"), impl != "serial") << line;
  // So do the wire and load-balancing volumes.
  for (const char* key : {"exchange_bytes", "lb_actions", "lb_bytes"}) {
    EXPECT_EQ(has_key(line, key), impl != "serial") << key << ": " << line;
  }
  EXPECT_FALSE(has_key(line, "rollbacks")) << line;

  const std::string banner = report.human_summary();
  EXPECT_EQ(banner.rfind(impl + ": VERIFIED", 0), 0u) << banner;
}

TEST(Engine, ResilientRunCarriesFtTelemetry) {
  RunConfig cfg = small_config("baseline");
  cfg.resilience.plan = picprk::ft::FaultPlan::parse("kill:rank=1,step=6", 1);
  cfg.resilience.checkpoint_every = 4;
  cfg.resilience.timeout_ms = 10000;
  const RunReport report = make_engine(cfg)->run();
  EXPECT_TRUE(report.result.ok);
  EXPECT_TRUE(report.ft_telemetry);
  EXPECT_GE(report.ft.recoveries, 1u);
  const std::string line = report.result_line();
  EXPECT_TRUE(has_key(line, "rollbacks")) << line;
  EXPECT_TRUE(has_key(line, "retransmits")) << line;
  EXPECT_TRUE(has_key(line, "dup_dropped")) << line;
}

TEST(Engine, AsyncResilientRunCarriesFtTelemetry) {
  // Async runs through run_resilient like the block drivers, so seeded
  // message faults over the reliable transport report the same ladder
  // telemetry: nothing to roll back, and the transport counters.
  RunConfig cfg = small_config("async");
  cfg.resilience.plan =
      picprk::ft::FaultPlan::parse("dup:prob=0.2;delay:prob=0.2,ms=1", 7);
  cfg.resilience.reliable = true;
  cfg.resilience.timeout_ms = 10000;
  const RunReport report = make_engine(cfg)->run();
  EXPECT_TRUE(report.result.ok);
  EXPECT_TRUE(report.ft_telemetry);
  EXPECT_EQ(report.ft.recoveries, 0u);
  EXPECT_GT(report.ft.duplicated + report.ft.delayed, 0u);
  const std::string line = report.result_line();
  for (const char* key : {"rollbacks", "retransmits", "dup_dropped"}) {
    EXPECT_TRUE(has_key(line, key)) << key << ": " << line;
  }
}

/// One knob each engine might silently ignore, and the engines that
/// honour it; make_engine must refuse it for every other engine.
struct KnobCase {
  const char* knob;        ///< the name the rejection must carry
  const char* accepted_by; ///< space-separated engine names
  void (*set)(RunConfig&);
};

const KnobCase kKnobTable[] = {
    {"--balancer", "diffusion ampi async",
     [](RunConfig& c) { c.lb.strategy = "greedy"; }},
    {"--faults drop", "baseline diffusion async",
     [](RunConfig& c) { c.resilience.plan = picprk::ft::FaultPlan::parse("drop:prob=0.1", 1); }},
    {"--faults dup", "baseline diffusion async",
     [](RunConfig& c) { c.resilience.plan = picprk::ft::FaultPlan::parse("dup:prob=0.1", 1); }},
    {"--faults delay", "baseline diffusion async",
     [](RunConfig& c) {
       c.resilience.plan = picprk::ft::FaultPlan::parse("delay:prob=0.1,ms=1", 1);
     }},
    {"--faults kill", "baseline diffusion ampi",
     [](RunConfig& c) {
       c.resilience.plan = picprk::ft::FaultPlan::parse("kill:rank=1,step=4", 1);
     }},
    {"--faults stall", "baseline diffusion ampi",
     [](RunConfig& c) {
       c.resilience.plan = picprk::ft::FaultPlan::parse("stall:rank=1,step=4,ms=5", 1);
     }},
    {"--faults stall", "baseline diffusion",
     [](RunConfig& c) {
       c.resilience.plan = picprk::ft::FaultPlan::parse("stall:rank=1,step=4,ms=inf", 1);
     }},
    {"--checkpoint-every", "baseline diffusion ampi",
     [](RunConfig& c) { c.resilience.checkpoint_every = 4; }},
    {"--checkpoint-every", "baseline diffusion ampi",
     [](RunConfig& c) {
       c.resilience.checkpoint_every = 4;
       c.resilience.recovery = picprk::par::RecoveryMode::kLocal;
     }},
    {"--reliable", "baseline diffusion async",
     [](RunConfig& c) { c.resilience.reliable = true; }},
    {"--timeout-ms", "baseline diffusion async",
     [](RunConfig& c) { c.resilience.timeout_ms = 1000; }},
    {"--deadlock-ms", "baseline diffusion async",
     [](RunConfig& c) { c.resilience.deadlock_ms = 1000; }},
};

TEST(Engine, EachEngineRejectsTheKnobsItWouldIgnore) {
  for (const KnobCase& knob : kKnobTable) {
    for (const std::string& impl : engine_names()) {
      RunConfig cfg = small_config(impl);
      cfg.lb.strategy.clear();
      knob.set(cfg);
      const bool accepted =
          (' ' + std::string(knob.accepted_by) + ' ').find(' ' + impl + ' ') !=
          std::string::npos;
      if (accepted) {
        EXPECT_NO_THROW((void)make_engine(cfg)) << impl << " " << knob.knob;
        continue;
      }
      try {
        (void)make_engine(cfg);
        ADD_FAILURE() << impl << " accepted " << knob.knob;
      } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(impl), std::string::npos) << what;
        EXPECT_NE(what.find(knob.knob), std::string::npos) << what;
      }
    }
  }
}

}  // namespace
