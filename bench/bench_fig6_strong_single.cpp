// Reproduces Figure 6 (Left): strong scaling on a single node, 1–24
// cores, of the three implementations (mpi-2d / ampi / mpi-2d-LB), plus
// the §V-B balance statistic (max particles per core at 24 cores:
// baseline 62,645 vs diffusion-LB 30,585 vs ideal 25,000).
//
// Paper setup: 2,998² cells, 600,000 particles, 6,000 steps, geometric
// r = 0.999, k = 0; parameters of each implementation tuned per point.
// Paper headlines at 24 cores: ampi 1.3× and diffusion-LB 1.6× faster
// than the baseline; near-identical performance up to 12 cores.
//
// The harness runs the performance model at paper scale and, with
// --real, additionally validates the ordering with the *real* threaded
// drivers at laptop scale.
#include <cstdint>
#include <iostream>

#include "comm/world.hpp"
#include "common.hpp"
#include "par/ampi.hpp"
#include "par/block.hpp"
#include "util/cli.hpp"

namespace {

void run_model(std::uint32_t steps) {
  using namespace picprk;
  const perfsim::Engine engine(bench::edison_model(),
                               perfsim::ColumnWorkload::from_expected(bench::fig6_workload()));
  const auto run = bench::paper_run(steps);

  std::cout << "=== Figure 6 Left: strong scaling, single node (model) ===\n\n";
  util::Table table({"cores", "mpi-2d", "ampi", "mpi-2d-LB", "LB/base", "ampi/base"});
  std::vector<double> xs, base_s, ampi_s, lb_s;
  double base24 = 0, ampi24 = 0, lb24 = 0;
  perfsim::ModelResult base24_full, lb24_full;

  for (int cores : {1, 4, 8, 12, 16, 20, 24}) {
    const auto base = engine.run_static(cores, run);
    const auto ampi = cores == 1 ? base : bench::tune_vpr(engine, cores, run).result;
    const auto lb = cores == 1 ? base : bench::tune_diffusion(engine, cores, run).result;
    table.add_row({std::to_string(cores), util::Table::fmt(base.seconds, 1),
                   util::Table::fmt(ampi.seconds, 1), util::Table::fmt(lb.seconds, 1),
                   util::Table::fmt(base.seconds / lb.seconds, 2),
                   util::Table::fmt(base.seconds / ampi.seconds, 2)});
    xs.push_back(cores);
    base_s.push_back(base.seconds);
    ampi_s.push_back(ampi.seconds);
    lb_s.push_back(lb.seconds);
    if (cores == 24) {
      base24 = base.seconds;
      ampi24 = ampi.seconds;
      lb24 = lb.seconds;
      base24_full = base;
      lb24_full = lb;
    }
  }
  table.print(std::cout);
  std::cout << "\nat 24 cores (paper: LB 1.6x, ampi 1.3x over baseline):\n"
            << "  model LB speedup over baseline:   " << util::Table::fmt(base24 / lb24, 2)
            << "x\n"
            << "  model ampi speedup over baseline: " << util::Table::fmt(base24 / ampi24, 2)
            << "x\n\n";

  std::cout << "max particles per core at 24 cores (paper: 62,645 baseline / "
               "30,585 LB / 25,000 ideal):\n"
            << "  model baseline: " << util::Table::fmt(base24_full.max_particles_final, 0)
            << "\n  model LB:       " << util::Table::fmt(lb24_full.max_particles_final, 0)
            << "\n  ideal:          " << util::Table::fmt(600000.0 / 24.0, 0) << "\n\n";

  util::print_series_csv(std::cout, {{"fig6L_mpi2d", xs, base_s},
                                     {"fig6L_ampi", xs, ampi_s},
                                     {"fig6L_mpi2dLB", xs, lb_s}});
}

void run_real() {
  using namespace picprk;
  std::cout << "\n=== laptop-scale validation with the real threaded drivers ===\n"
            << "(scaled: 256 cells, 40,000 particles, 200 steps, 4 ranks)\n\n";
  par::RunConfig cfg;
  cfg.init.grid = pic::GridSpec(256, 1.0);
  cfg.init.total_particles = 40000;
  cfg.init.distribution = pic::Geometric{0.99};
  cfg.steps = 200;
  cfg.sample_every = 10;
  cfg.lb.every = 0;  // baseline: static bounds

  par::DriverResult base, diff;
  comm::World world(4);
  world.run([&](comm::Comm& comm) {
    const auto b = par::run_block(comm, cfg);
    par::RunConfig dcfg = cfg;
    dcfg.lb.strategy = "diffusion:threshold=0.05,border=2";
    dcfg.lb.every = 8;
    const auto d = par::run_block(comm, dcfg);
    if (comm.rank() == 0) {
      base = b;
      diff = d;
    }
  });
  par::RunConfig acfg = cfg;
  acfg.workers = 2;
  acfg.overdecomposition = 8;
  acfg.lb.every = 16;
  const auto ampi = par::run_ampi(acfg);

  util::Table table({"impl", "verified", "max particles/rank", "avg imbalance (sampled)"});
  auto mean = [](const std::vector<double>& v) {
    double s = 0;
    for (double x : v) s += x;
    return v.empty() ? 1.0 : s / static_cast<double>(v.size());
  };
  table.add_row({"mpi-2d", base.ok ? "yes" : "NO",
                 util::Table::fmt_u64(base.max_particles_per_rank),
                 util::Table::fmt(mean(base.imbalance_series), 2)});
  table.add_row({"mpi-2d-LB", diff.ok ? "yes" : "NO",
                 util::Table::fmt_u64(diff.max_particles_per_rank),
                 util::Table::fmt(mean(diff.imbalance_series), 2)});
  table.add_row({"ampi", ampi.ok ? "yes" : "NO",
                 util::Table::fmt_u64(ampi.max_particles_per_rank),
                 util::Table::fmt(mean(ampi.imbalance_series), 2)});
  table.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace picprk;
  util::ArgParser args("bench_fig6_strong_single",
                       "Figure 6 Left: strong scaling on one node");
  args.add_int("steps", 6000, "time steps (paper: 6000)");
  args.add_flag("real", true, "also run the real threaded drivers at laptop scale");
  if (!args.parse(argc, argv)) return 0;

  run_model(static_cast<std::uint32_t>(args.get_int("steps")));
  if (args.get_flag("real")) run_real();
  return 0;
}
