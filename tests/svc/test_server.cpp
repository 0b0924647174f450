// End-to-end contract of the multi-tenant job server (docs/SERVICE.md):
// concurrent heterogeneous tenants all verify against the closed form,
// admission backpressure is typed and loud, a fault drill in one tenant
// never perturbs its neighbours, per-tenant metrics documents are
// disjoint, and two servers fed identical telemetry replay identical
// cross-job placement plans bit for bit.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "ft/fault.hpp"
#include "par/ampi.hpp"
#include "svc/job_table.hpp"
#include "svc/server.hpp"
#include "svc/spec.hpp"

namespace {

namespace fs = std::filesystem;
using picprk::svc::AdmissionError;
using picprk::svc::Job;
using picprk::svc::JobState;
using picprk::svc::Server;
using picprk::svc::ServerConfig;
using picprk::svc::parse_job_spec;

std::uint64_t closed_form(std::uint64_t n) { return n * (n + 1) / 2; }

ServerConfig quiet_config() {
  ServerConfig config;
  config.workers = 4;
  config.quantum = 8;
  return config;
}

std::string slurp(const fs::path& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// RAII temp dir for metrics-document tests.
struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& tag)
      : path(fs::temp_directory_path() / ("picprk-svc-" + tag)) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
};

TEST(ServerTest, FourHeterogeneousJobsAllVerify) {
  Server server(quiet_config());
  server.submit(parse_job_spec("uni:dist=uniform,particles=3000,steps=24,d=4"));
  server.submit(
      parse_job_spec("geo:dist=geometric,r=0.95,particles=2500,steps=32,d=4"));
  server.submit(parse_job_spec("sin:dist=sinusoidal,particles=2000,steps=16,d=2"));
  server.submit(parse_job_spec(
      "pat:dist=patch,patch_x0=0,patch_x1=16,patch_y0=0,patch_y1=16,"
      "particles=1500,steps=24,d=4,balancer=greedy"));

  std::ostringstream out;
  server.drain(out);

  const auto jobs = server.table().all();
  ASSERT_EQ(jobs.size(), 4u);
  for (const Job* job : jobs) {
    ASSERT_EQ(job->state(), JobState::kDone) << job->name() << ": " << job->failure();
    EXPECT_TRUE(job->result().ok) << job->name();
    EXPECT_EQ(job->steps_done(), job->spec().run.steps) << job->name();
    // init places approximately the requested count (per-cell rounding
    // drifts a little either way); ids are 1..placed, so the paper's
    // closed form is over the placed count: Σid = n(n+1)/2.
    const std::uint64_t n = job->result().final_particles;
    const std::uint64_t requested = job->spec().run.init.total_particles;
    EXPECT_GE(n, requested * 9 / 10) << job->name();
    EXPECT_LE(n, requested * 11 / 10) << job->name();
    EXPECT_EQ(job->result().id_checksum, closed_form(n)) << job->name();
    EXPECT_EQ(job->result().expected_checksum, closed_form(n)) << job->name();
  }
  // Every tenant got its own RESULT line with status=pass.
  const std::string text = out.str();
  for (const char* name : {"uni", "geo", "sin", "pat"}) {
    EXPECT_NE(text.find("RESULT impl=serve job=" + std::string(name) +
                        " status=pass"),
              std::string::npos)
        << name;
  }
}

TEST(ServerTest, BackpressureIsATypedLoudError) {
  ServerConfig config = quiet_config();
  config.queue_capacity = 2;
  Server server(config);
  server.submit(parse_job_spec("a:particles=1000,steps=8"));
  // Duplicate live names are a different (programming) error, checked
  // while a seat is still free.
  EXPECT_THROW(server.submit(parse_job_spec("a:particles=1000,steps=8")),
               std::invalid_argument);
  server.submit(parse_job_spec("b:particles=1000,steps=8"));
  try {
    server.submit(parse_job_spec("c:particles=1000,steps=8"));
    FAIL() << "third submit beyond capacity must throw AdmissionError";
  } catch (const AdmissionError& e) {
    EXPECT_EQ(e.job(), "c");
    EXPECT_EQ(e.capacity(), 2u);
    EXPECT_NE(std::string(e.what()).find("capacity"), std::string::npos);
  }
  // Draining frees seats: the same job is admissible afterwards.
  std::ostringstream out;
  server.drain(out);
  EXPECT_NO_THROW(server.submit(parse_job_spec("c:particles=1000,steps=8")));
  server.drain(out);
}

TEST(ServerTest, FaultInOneTenantDoesNotPerturbNeighbours) {
  Server server(quiet_config());
  server.submit(parse_job_spec("left:dist=uniform,particles=2000,steps=24"));
  server.submit(parse_job_spec(
      "drill:dist=geometric,particles=2000,steps=24,"
      "kill_vp=1,kill_step=10,checkpoint_every=4"));
  server.submit(parse_job_spec("right:dist=sinusoidal,particles=2000,steps=24"));

  std::ostringstream out;
  server.drain(out);

  Job* drill = server.table().find("drill");
  ASSERT_NE(drill, nullptr);
  EXPECT_EQ(drill->state(), JobState::kDone) << drill->failure();
  EXPECT_TRUE(drill->result().ok);
  EXPECT_GE(drill->result().recoveries, 1u);  // the drill actually fired

  for (const char* name : {"left", "right"}) {
    Job* job = server.table().find(name);
    ASSERT_NE(job, nullptr);
    EXPECT_EQ(job->state(), JobState::kDone) << name;
    EXPECT_TRUE(job->result().ok) << name;
    EXPECT_EQ(job->result().recoveries, 0u) << name;  // untouched by the drill
    EXPECT_EQ(job->result().id_checksum,
              closed_form(job->result().final_particles))
        << name;
  }
}

TEST(ServerTest, JobAndRunAmpiAgreeOnAKillDrill) {
  // One RunConfig, both VP hosts: a job advanced to completion and
  // run_ampi on one worker with the same drill must end identically.
  const auto spec = parse_job_spec(
      "drill:dist=geometric,particles=2000,steps=24,d=4,"
      "kill_vp=1,kill_step=10,checkpoint_every=4");
  Job job(0, spec);
  while (job.state() == JobState::kRunning) job.advance(5);
  ASSERT_EQ(job.state(), JobState::kDone) << job.failure();

  picprk::par::RunConfig cfg = spec.run;
  cfg.workers = 1;
  cfg.resilience.plan = picprk::ft::FaultPlan::parse("kill:rank=1,step=10", 1);
  cfg.resilience.checkpoint_every = 4;
  const picprk::par::DriverResult ampi = picprk::par::run_ampi(cfg);

  EXPECT_TRUE(ampi.ok);
  EXPECT_TRUE(job.result().ok);
  EXPECT_EQ(ampi.final_particles, job.result().final_particles);
  EXPECT_EQ(ampi.verification.id_checksum, job.result().id_checksum);
  EXPECT_EQ(ampi.recoveries, job.result().recoveries);
  EXPECT_EQ(ampi.recoveries, 1u);
  EXPECT_EQ(ampi.lb_actions, job.result().migrations);
}

TEST(ServerTest, CancelledJobIsReportedNotVerified) {
  Server server(quiet_config());
  server.submit(parse_job_spec("keep:particles=1500,steps=16"));
  server.submit(parse_job_spec("drop:particles=1500,steps=16"));
  EXPECT_TRUE(server.cancel("drop"));
  EXPECT_FALSE(server.cancel("drop"));     // already cancelled
  EXPECT_FALSE(server.cancel("missing"));  // never existed

  std::ostringstream out;
  server.drain(out);
  EXPECT_EQ(server.table().find("drop")->state(), JobState::kCancelled);
  EXPECT_EQ(server.table().find("keep")->state(), JobState::kDone);
  EXPECT_NE(out.str().find("RESULT impl=serve job=drop status=cancelled"),
            std::string::npos);
  EXPECT_NE(out.str().find("RESULT impl=serve job=keep status=pass"),
            std::string::npos);
}

TEST(ServerTest, FairShareWeightsScaleCycleCounts) {
  // Two identical 64-step tenants, weights 1 and 2: the heavy one takes
  // 16 steps per cycle and finishes in half the cycles. The cycle count
  // is deterministic, so the ±10% bound of the acceptance gate is easy.
  ServerConfig config = quiet_config();
  config.quantum = 8;
  Server server(config);
  server.submit(parse_job_spec("light:particles=1500,steps=64,weight=1"));
  server.submit(parse_job_spec("heavy:particles=1500,steps=64,weight=2"));
  std::ostringstream out;
  server.drain(out);

  const Job* light = server.table().find("light");
  const Job* heavy = server.table().find("heavy");
  ASSERT_NE(light, nullptr);
  ASSERT_NE(heavy, nullptr);
  EXPECT_EQ(light->state(), JobState::kDone);
  EXPECT_EQ(heavy->state(), JobState::kDone);
  const double ratio = static_cast<double>(light->cycles()) /
                       static_cast<double>(heavy->cycles());
  EXPECT_NEAR(ratio, 2.0, 0.2);  // weight ratio, within ±10%
}

TEST(ServerTest, PerTenantMetricsDocumentsAreDisjoint) {
  TempDir dir("metrics");
  ServerConfig config = quiet_config();
  config.metrics_dir = dir.path.string();
  Server server(config);
  server.submit(parse_job_spec("ma:dist=uniform,particles=1200,steps=8,seed=11"));
  server.submit(parse_job_spec("mb:dist=geometric,particles=3400,steps=8,seed=22"));
  std::ostringstream out;
  server.drain(out);

  const std::string a = slurp(dir.path / "job-ma.json");
  const std::string b = slurp(dir.path / "job-mb.json");
  const std::string aggregate = slurp(dir.path / "server.json");
  ASSERT_FALSE(a.empty());
  ASSERT_FALSE(b.empty());
  ASSERT_FALSE(aggregate.empty());

  // Each document is the picprk-bench-v1 schema describing exactly its
  // own tenant — name, distribution, size — with no bleed-through.
  // (The nested config object renders compact: "key":value.)
  for (const std::string* doc : {&a, &b, &aggregate}) {
    EXPECT_NE(doc->find("picprk-bench-v1"), std::string::npos);
  }
  EXPECT_NE(a.find("\"job\":\"ma\""), std::string::npos);
  EXPECT_NE(a.find("\"dist\":\"uniform\""), std::string::npos);
  EXPECT_NE(a.find("\"particles\":1200"), std::string::npos);
  EXPECT_EQ(a.find("geometric"), std::string::npos);
  EXPECT_NE(b.find("\"job\":\"mb\""), std::string::npos);
  EXPECT_NE(b.find("\"dist\":\"geometric("), std::string::npos);
  EXPECT_NE(b.find("\"particles\":3400"), std::string::npos);
  EXPECT_EQ(b.find("uniform"), std::string::npos);
  // The aggregate carries the server-level counters, not tenant configs.
  EXPECT_NE(aggregate.find("svc/cycles"), std::string::npos);
  EXPECT_EQ(aggregate.find("\"job\":"), std::string::npos);
}

TEST(ServerTest, TwoServersReplayPlacementPlansBitForBit) {
  // With measured cost off (uniform cost assumption) the whole telemetry
  // stream is deterministic, so two independent server instances fed the
  // same submissions must log identical placement plans — the jobs-as-
  // super-VPs analogue of the lb layer's replay contract.
  const auto run_one = [] {
    ServerConfig config;
    config.workers = 3;
    config.quantum = 4;
    config.measured_cost = false;
    config.scheduler = "greedy";
    Server server(config);
    server.submit(parse_job_spec("a:dist=uniform,particles=1500,steps=12,weight=1"));
    server.submit(
        parse_job_spec("b:dist=geometric,particles=2500,steps=20,weight=2"));
    server.submit(parse_job_spec("c:dist=sinusoidal,particles=1000,steps=8"));
    std::ostringstream out;
    server.drain(out);
    return server.placement_log();
  };
  const std::vector<std::string> first = run_one();
  const std::vector<std::string> second = run_one();
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(ServerTest, StaticScheduleMatchesStealingButNeverSteals) {
  // ServerConfig::allow_steal = false (`picprk serve --no-steal`) is the
  // static schedule stealing is measured against: the plan's placement
  // runs verbatim. It must report the same tenants identically — every
  // RESULT field but the wall time — and steal nothing.
  const auto run_batch = [](bool allow_steal, std::uint64_t& steals) {
    ServerConfig config;
    config.workers = 3;
    config.quantum = 4;
    config.measured_cost = false;
    config.allow_steal = allow_steal;
    Server server(config);
    server.submit(parse_job_spec("a:dist=uniform,particles=1500,steps=12,weight=1"));
    server.submit(
        parse_job_spec("b:dist=geometric,particles=2500,steps=20,weight=2"));
    server.submit(parse_job_spec("c:dist=sinusoidal,particles=1000,steps=8,d=4"));
    std::ostringstream out;
    server.drain(out);
    steals = server.registry().find_counter("ws/steals")->value();
    std::vector<std::string> results;
    std::istringstream lines(out.str());
    for (std::string line; std::getline(lines, line);) {
      if (line.rfind("RESULT ", 0) != 0) continue;
      const std::size_t at = line.find(" seconds=");
      EXPECT_NE(at, std::string::npos) << line;
      const std::size_t end = line.find(' ', at + 1);
      line.erase(at, end == std::string::npos ? std::string::npos : end - at);
      results.push_back(line);
    }
    return results;
  };
  std::uint64_t static_steals = 0;
  std::uint64_t stealing_steals = 0;
  const std::vector<std::string> fixed = run_batch(false, static_steals);
  const std::vector<std::string> stolen = run_batch(true, stealing_steals);
  ASSERT_EQ(fixed.size(), 3u);
  for (const std::string& line : fixed) {
    EXPECT_NE(line.find("status=pass"), std::string::npos) << line;
  }
  EXPECT_EQ(fixed, stolen);
  EXPECT_EQ(static_steals, 0u);
}

TEST(ServerTest, RunCommandsDrivesTheFullProtocol) {
  std::istringstream in(
      "# a comment\n"
      "submit ra:particles=1200,steps=8\n"
      "submit rb:dist=geometric,particles=1200,steps=8\n"
      "cancel rb\n"
      "drain\n");
  std::ostringstream out;
  Server server(quiet_config());
  EXPECT_EQ(server.run_commands(in, out), 0);
  const std::string text = out.str();
  EXPECT_NE(text.find("admitted job ra"), std::string::npos);
  EXPECT_NE(text.find("RESULT impl=serve job=ra status=pass"), std::string::npos);
  EXPECT_NE(text.find("RESULT impl=serve job=rb status=cancelled"),
            std::string::npos);
}

TEST(ServerTest, MalformedCommandAbortsWithUsageExit) {
  std::istringstream in("submit broken:nonsense=1\n");
  std::ostringstream out;
  Server server(quiet_config());
  EXPECT_EQ(server.run_commands(in, out), 2);
}

}  // namespace
