#include "runs.hpp"

#include <sys/resource.h>

#include <exception>
#include <map>
#include <sstream>

#include "svc/server.hpp"
#include "util/timer.hpp"

namespace perfbench {

namespace par = picprk::par;
namespace svc = picprk::svc;

double process_cpu_seconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  const auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return sec(u.ru_utime) + sec(u.ru_stime);
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

double EngineRun::imbalance() const {
  const par::DriverResult& r = report.result;
  return r.ideal_particles_per_rank > 0.0
             ? static_cast<double>(r.max_particles_per_rank) / r.ideal_particles_per_rank
             : 0.0;
}

EngineRun run_engine(const Workload& w, const Problem& problem, const std::string& engine,
                     const picprk::obs::Hooks& hooks, std::uint32_t sample_every) {
  EngineRun run;
  run.engine = engine;
  run.problem = &problem;
  par::RunConfig config = engine_config(w, problem, engine);
  config.obs = hooks;
  config.sample_every = sample_every;
  const double cpu0 = process_cpu_seconds();
  const picprk::util::Timer wall;
  try {
    run.report = par::make_engine(std::move(config))->run();
  } catch (const std::exception& e) {
    run.error = engine + " on " + problem.name + " threw: " + e.what();
  }
  run.timing.wall_seconds = wall.elapsed();
  run.timing.stepping_seconds = run.report.result.seconds;
  run.cpu_seconds = process_cpu_seconds() - cpu0;
  if (!run.error.empty()) return run;

  const par::DriverResult& r = run.report.result;
  const Census& c = problem.census;
  run.verified = r.ok && r.verification.id_checksum == r.expected_id_checksum &&
                 r.expected_id_checksum == c.final_id_sum &&
                 r.final_particles == c.final_particles;
  if (!run.verified) {
    std::ostringstream o;
    o << engine << " on " << problem.name << ": ok=" << r.ok
      << " checksum=" << r.verification.id_checksum
      << " expected=" << r.expected_id_checksum
      << " census=" << c.final_id_sum << " particles=" << r.final_particles
      << " census_particles=" << c.final_particles;
    run.error = o.str();
  }
  return run;
}

ServeRun run_serve(const Workload& w) {
  ServeRun out;
  svc::ServerConfig config;
  config.workers = kThreads;
  config.queue_capacity = w.tenants.size();
  const double cpu0 = process_cpu_seconds();
  try {
    svc::Server server(config);
    std::vector<svc::Job*> jobs;
    const picprk::util::Timer submit;
    for (const Problem& t : w.tenants) jobs.push_back(&server.submit(tenant_spec(w, t)));
    out.submit_seconds = submit.elapsed();
    std::ostringstream drained;  // the server's RESULT lines; checked below instead
    const picprk::util::Timer drain;
    server.drain(drained);
    out.drain_seconds = drain.elapsed();
    out.cycles = server.cycles();
    const picprk::obs::Registry& reg = server.registry();
    if (const auto* c = reg.find_counter("ws/tasks")) out.pool_tasks = c->value();
    if (const auto* c = reg.find_counter("ws/steals")) out.pool_steals = c->value();
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const svc::Job& job = *jobs[i];
      const Census& c = w.tenants[i].census;
      out.particle_steps += c.particle_steps;
      TenantRun t;
      t.name = job.name();
      t.id_checksum = job.result().id_checksum;
      t.cost_per_step = job.cost_per_step();
      t.verified = job.state() == svc::JobState::kDone && job.result().ok &&
                   job.result().id_checksum == job.result().expected_checksum &&
                   job.result().expected_checksum == c.final_id_sum &&
                   job.result().final_particles == c.final_particles;
      if (!t.verified) {
        t.error = "serve tenant " + t.name + ": state=" + svc::to_string(job.state()) +
                  " checksum=" + std::to_string(job.result().id_checksum) +
                  " census=" + std::to_string(c.final_id_sum) + " " + job.failure();
      }
      if (const auto* h = job.registry().find_histogram("svc/step_seconds")) {
        t.step_ms_p50 = h->quantile(50.0) * 1e3;
        t.step_ms_p95 = h->quantile(95.0) * 1e3;
      }
      out.tenants.push_back(std::move(t));
    }
  } catch (const std::exception& e) {
    out.error = std::string("serve threw: ") + e.what();
  }
  out.cpu_seconds = process_cpu_seconds() - cpu0;
  return out;
}

std::vector<std::string> failures(const std::vector<EngineRun>& runs,
                                  const ServeRun& serve) {
  std::vector<std::string> out;
  std::map<std::string, std::uint64_t> reference;  // problem name -> first checksum
  const auto agree = [&](const std::string& problem, std::uint64_t checksum) {
    const auto [it, inserted] = reference.emplace(problem, checksum);
    return inserted || it->second == checksum;
  };
  for (const EngineRun& r : runs) {
    const std::uint64_t checksum = r.report.result.verification.id_checksum;
    if (!r.error.empty()) {
      out.push_back(r.error);
    } else if (!agree(r.problem->name, checksum)) {
      out.push_back(r.engine + " on " + r.problem->name + " ends with id checksum " +
                    std::to_string(checksum) + ", other engines with " +
                    std::to_string(reference[r.problem->name]));
    }
  }
  if (!serve.error.empty()) out.push_back(serve.error);
  for (const TenantRun& t : serve.tenants) {
    if (!t.error.empty()) {
      out.push_back(t.error);
    } else if (!agree(t.name, t.id_checksum)) {
      out.push_back("serve tenant " + t.name +
                    " disagrees with the engines' id checksum");
    }
  }
  return out;
}

}  // namespace perfbench
