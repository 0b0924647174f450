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

}  // namespace
