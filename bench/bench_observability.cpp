// Telemetry overhead of the obs subsystem (docs/OBSERVABILITY.md): the
// same baseline-driver run executed dark (hooks null — the default every
// caller gets) and observed (registry + trace attached), repeated and
// compared. The claim under test: attaching full per-step telemetry —
// four Phase spans, histogram observations, counters and a trace lane
// per rank per step, plus the per-step imbalance allreduce — costs under
// 2% of wall time; a PICPRK_OBS=OFF build removes even that.
#include <algorithm>
#include <iostream>
#include <vector>

#include "bench_json.hpp"
#include "comm/world.hpp"
#include "obs/phase.hpp"
#include "obs/registry.hpp"
#include "obs/sinks.hpp"
#include "par/block.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace picprk;
  util::ArgParser args("bench_observability", "obs subsystem overhead (dark vs observed)");
  args.add_int("cells", 64, "mesh cells per dimension");
  args.add_int("particles", 200000, "global particle count");
  args.add_int("steps", 60, "time steps per run");
  args.add_int("ranks", 4, "threadcomm ranks");
  args.add_int("reps", 5, "repetitions per mode (median reported)");
  args.add_flag("smoke", false, "tiny sizes for CI");
  args.add_flag("json", false, "also write BENCH_observability.json");
  args.add_string("json-path", "BENCH_observability.json", "output path for --json");
  if (!args.parse(argc, argv)) return 0;

  const bool smoke = args.get_flag("smoke");
  const int ranks = static_cast<int>(args.get_int("ranks"));
  const int reps = smoke ? 2 : static_cast<int>(args.get_int("reps"));

  par::RunConfig base_cfg;
  base_cfg.lb.every = 0;  // baseline: static bounds
  base_cfg.init.grid = pic::GridSpec(smoke ? 24 : args.get_int("cells"), 1.0);
  base_cfg.init.total_particles =
      static_cast<std::uint64_t>(smoke ? 20000 : args.get_int("particles"));
  base_cfg.init.distribution = pic::Geometric{0.95};
  base_cfg.steps = static_cast<std::uint32_t>(smoke ? 10 : args.get_int("steps"));

  // One run, returning the driver-reported stepping-loop seconds (max
  // over ranks — the same figure the CLI prints).
  const auto run_once = [&](const obs::Hooks& hooks, std::uint32_t sample_every) {
    par::RunConfig cfg = base_cfg;
    cfg.obs = hooks;
    cfg.sample_every = sample_every;
    double seconds = 0.0;
    bool ok = false;
    comm::World world(ranks);
    world.run([&](comm::Comm& comm) {
      const par::DriverResult r = par::run_block(comm, cfg);
      if (comm.rank() == 0) {
        seconds = r.seconds;
        ok = r.ok;
      }
    });
    if (!ok) {
      std::cerr << "bench_observability: verification failed\n";
      std::exit(1);
    }
    return seconds;
  };

  std::cout << "=== obs overhead: baseline driver, dark vs observed ===\n"
            << base_cfg.init.total_particles << " particles, "
            << base_cfg.init.grid.cells << "^2 cells, " << base_cfg.steps
            << " steps, " << ranks << " ranks, " << reps << " reps\n"
            << "telemetry compiled " << (obs::kEnabled ? "IN" : "OUT (PICPRK_OBS=OFF)")
            << "\n\n";

  // Warm-up: touch every code path (thread pools, allocators) once.
  run_once(obs::Hooks{}, 0);

  std::vector<double> dark_runs, observed_runs;
  for (int rep = 0; rep < reps; ++rep) {
    // Alternate modes so slow drift (turbo, thermal) hits both equally.
    dark_runs.push_back(run_once(obs::Hooks{}, 0));
    obs::Registry registry;
    obs::Trace trace;
    observed_runs.push_back(run_once(obs::Hooks{&registry, &trace}, 1));
  }
  std::sort(dark_runs.begin(), dark_runs.end());
  std::sort(observed_runs.begin(), observed_runs.end());
  const double dark = util::percentile(dark_runs, 50.0);
  const double observed = util::percentile(observed_runs, 50.0);
  const double overhead = dark > 0.0 ? (observed - dark) / dark * 100.0 : 0.0;

  util::Table table({"mode", "median seconds", "min", "max"});
  table.add_row({"dark (hooks null)", util::Table::fmt(dark, 4),
                 util::Table::fmt(dark_runs.front(), 4),
                 util::Table::fmt(dark_runs.back(), 4)});
  table.add_row({"observed (registry+trace)", util::Table::fmt(observed, 4),
                 util::Table::fmt(observed_runs.front(), 4),
                 util::Table::fmt(observed_runs.back(), 4)});
  table.print(std::cout);
  std::cout << "\ntelemetry overhead: " << util::Table::fmt(overhead, 2)
            << "% of dark wall time\n";

  if (args.get_flag("json")) {
    util::JsonObject config;
    config.add("cells", base_cfg.init.grid.cells)
        .add("particles", base_cfg.init.total_particles)
        .add("steps", static_cast<std::int64_t>(base_cfg.steps))
        .add("ranks", static_cast<std::int64_t>(ranks))
        .add("reps", static_cast<std::int64_t>(reps))
        .add("obs_compiled_in", obs::kEnabled);
    util::JsonObject result;
    result.add("dark_seconds_p50", dark)
        .add("observed_seconds_p50", observed)
        .add("overhead_percent", overhead)
        .add("dark_runs", dark_runs)
        .add("observed_runs", observed_runs);
    if (!bench::write_bench_json(args.get_string("json-path"), "observability", config,
                                 {result})) {
      std::cerr << "bench_observability: cannot write " << args.get_string("json-path")
                << '\n';
      return 1;
    }
    std::cout << "wrote " << args.get_string("json-path") << '\n';
  }
  return 0;
}
