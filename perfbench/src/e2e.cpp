// Dark end-to-end runs: repetitions of the whole workload (every engine on
// every problem, then the server batch) until the time budget is spent;
// each metric is the median over repetitions.
#include <algorithm>
#include <iostream>
#include <map>

#include "host.hpp"
#include "measure.hpp"
#include "runs.hpp"
#include "util/timer.hpp"

namespace perfbench {

namespace {

constexpr int kMinReps = 3;
constexpr int kMaxReps = 200;

using RepValues = std::map<std::string, double>;

RepValues rep_metrics(const std::vector<EngineRun>& runs, const ServeRun& serve) {
  RepValues v;
  std::vector<RunTiming> timings;
  double cpu = serve.cpu_seconds;
  double psteps = static_cast<double>(serve.particle_steps);
  std::map<std::string, double> engine_psteps;
  std::map<std::string, double> engine_seconds;
  std::map<std::string, std::vector<double>> imbalance;
  for (const EngineRun& r : runs) {
    timings.push_back(r.timing);
    cpu += r.cpu_seconds;
    const auto ps = static_cast<double>(r.problem->census.particle_steps);
    psteps += ps;
    engine_psteps[r.engine] += ps;
    engine_seconds[r.engine] += r.timing.stepping_seconds;
    imbalance[r.engine].push_back(r.imbalance());
  }
  v["setup_s"] = setup_seconds(timings, serve.submit_seconds);
  for (const std::string& e : engine_names()) {
    v["mpsteps_s." + e] = engine_psteps[e] / engine_seconds[e] * 1e-6;
  }
  v["mpsteps_s.serve"] =
      static_cast<double>(serve.particle_steps) / serve.drain_seconds * 1e-6;
  v["cpu_ns_per_pstep"] = cpu / psteps * 1e9;
  for (const char* e : {"diffusion", "ampi", "async"}) {
    const std::vector<double>& xs = imbalance[e];
    double sum = 0.0;
    for (const double x : xs) sum += x;
    v[std::string("imbalance.") + e] = sum / static_cast<double>(xs.size());
  }
  return v;
}

const std::vector<std::pair<std::string, std::string>>& e2e_units() {
  static const std::vector<std::pair<std::string, std::string>> units = {
      {"setup_s", "s"},
      {"mpsteps_s.serial", "Mpsteps/s"},
      {"mpsteps_s.baseline", "Mpsteps/s"},
      {"mpsteps_s.diffusion", "Mpsteps/s"},
      {"mpsteps_s.ampi", "Mpsteps/s"},
      {"mpsteps_s.async", "Mpsteps/s"},
      {"mpsteps_s.serve", "Mpsteps/s"},
      {"cpu_ns_per_pstep", "ns"},
      {"imbalance.diffusion", "ratio"},
      {"imbalance.ampi", "ratio"},
      {"imbalance.async", "ratio"},
  };
  return units;
}

}  // namespace

Result measure_e2e(const Workload& w, const Options& options) {
  Result res;
  using picprk::util::JsonObject;
  std::vector<JsonObject> configs;
  for (const Problem& p : w.problems) {
    for (const std::string& e : engine_names()) {
      configs.push_back(describe(engine_config(w, p, e)));
      std::cout << "config " << p.name << ' ' << configs.back().to_string() << '\n';
    }
  }
  for (const Problem& t : w.tenants) {
    const picprk::svc::JobSpec spec = tenant_spec(w, t);
    configs.push_back(describe(spec.run)
                          .add("tenant", t.name)
                          .add("weight", t.weight)
                          .add("tenant_checkpoint_every",
                               static_cast<std::uint64_t>(spec.checkpoint_every)));
    std::cout << "config serve-tenant " << configs.back().to_string() << '\n';
  }
  // Working set of each problem's particle store (80-byte records), next
  // to the last-level cache it is measured against.
  std::map<std::string, std::uint64_t> particles;  // by name: serve-mixed shares them
  for (const std::vector<Problem>* group : {&w.problems, &w.tenants}) {
    for (const Problem& p : *group) particles[p.name] = p.census.initial_particles;
  }
  JsonObject working_sets;
  for (const auto& [name, n] : particles) {
    const std::uint64_t bytes = n * sizeof(picprk::pic::Particle);
    std::cout << "working_set " << name << " particles=" << n << " bytes=" << bytes
              << " llc_bytes=" << options.llc_bytes << '\n';
    working_sets.add(name, bytes);
  }

  std::map<std::string, std::vector<double>> per_rep;
  const picprk::util::Timer total;
  int reps = 0;
  while (reps < kMinReps ||
         (reps < kMaxReps && total.elapsed() * (reps + 1) / reps <= options.seconds)) {
    std::vector<EngineRun> runs;
    for (const Problem& p : w.problems) {
      for (const std::string& e : engine_names()) runs.push_back(run_engine(w, p, e));
    }
    const ServeRun serve = run_serve(w);
    const std::vector<std::string> failed = failures(runs, serve);
    const std::uint64_t attempted = runs.size() + w.tenants.size();
    res.attempted += attempted;
    res.failed += std::min<std::uint64_t>(failed.size(), attempted);
    for (const std::string& f : failed) {
      res.failures.push_back("rep " + std::to_string(reps) + ": " + f);
    }
    const RepValues v = rep_metrics(runs, serve);
    std::cout << "rep " << reps;
    for (const auto& [name, value] : v) {
      per_rep[name].push_back(finite_or_zero(value));
      std::cout << ' ' << name << '=' << value;
    }
    std::cout << '\n' << std::flush;
    ++reps;
  }

  for (const auto& [name, unit] : e2e_units()) {
    res.metrics.push_back(Metric{name, median(per_rep[name]), unit});
  }
  res.metrics.push_back(Metric{"peak_rss_mb", peak_rss_mb(), "MB"});
  const double fail_frac = static_cast<double>(res.failed) /
                           static_cast<double>(std::max<std::uint64_t>(res.attempted, 1));
  std::cout << "fail_frac " << fail_frac << " (" << res.failed << " of " << res.attempted
            << " runs and tenants)\n";

  JsonObject values;
  for (const auto& [name, xs] : per_rep) values.add(name, xs);
  JsonObject doc;
  doc.add("workload", w.name)
      .add("seed", w.seed)
      .add("reps", static_cast<std::int64_t>(reps))
      .add("fail_frac", fail_frac)
      .add("host", options.host)
      .add("build", build_facts())
      .add("configs", configs)
      .add("working_set_bytes", working_sets)
      .add("per_rep", values)
      .add("result", result_object(res));
  write_report(options, "e2e.json", doc);
  return res;
}

}  // namespace perfbench
