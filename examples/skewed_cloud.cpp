// Skewed drifting cloud: the paper's §III-E1 scenario end to end.
//
// An exponentially skewed particle cloud (geometric ratio r) drifts one
// cell per step across a statically decomposed domain; we race the three
// reference implementations — no LB, diffusion LB, and runtime (vpr) LB
// — on the real threaded runtimes, print their per-phase breakdowns and
// balance statistics, and verify every one of them.
//
//   ./skewed_cloud --ranks 4 --r 0.98 --steps 300
#include <iostream>

#include "par/ampi.hpp"
#include "par/engine.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

double mean(const std::vector<double>& v) {
  if (v.empty()) return 1.0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace picprk;

  util::ArgParser args("skewed_cloud",
                       "three load-balancing strategies on a drifting skewed cloud");
  args.add_int("cells", 256, "mesh cells per dimension");
  args.add_int("particles", 60000, "requested particle count");
  args.add_int("steps", 300, "time steps");
  args.add_int("ranks", 4, "ranks / workers");
  args.add_double("r", 0.98, "geometric skew ratio");
  // Note the co-tuning constraint of §IV-B: the boundaries must be able
  // to track the cloud's drift, i.e. border/frequency >= (2k+1) cells
  // per step — otherwise diffusion cannot catch the moving cloud at all.
  args.add_int("lb-frequency", 4, "diffusion: steps between LB attempts");
  args.add_double("lb-threshold", 0.05, "diffusion: trigger threshold tau");
  args.add_int("lb-border", 8, "diffusion: cell columns moved per action");
  args.add_int("ampi-d", 8, "vpr: over-decomposition degree");
  args.add_int("ampi-F", 16, "vpr: LB interval");
  args.add_string("ampi-balancer", "greedy", "lb strategy spec for the vpr runtime (see picprk --balancer list)");
  if (!args.parse(argc, argv)) return 0;

  par::RunConfig cfg;
  cfg.init.grid = pic::GridSpec(args.get_int("cells"), 1.0);
  cfg.init.total_particles = static_cast<std::uint64_t>(args.get_int("particles"));
  cfg.init.distribution = pic::Geometric{args.get_double("r")};
  cfg.steps = static_cast<std::uint32_t>(args.get_int("steps"));
  cfg.sample_every = std::max(1u, cfg.steps / 50);

  const int ranks = static_cast<int>(args.get_int("ranks"));
  cfg.ranks = ranks;

  cfg.impl = "baseline";
  const par::DriverResult base = par::make_engine(cfg)->run().result;
  par::RunConfig dcfg = cfg;
  dcfg.impl = "diffusion";
  dcfg.lb.every = static_cast<std::uint32_t>(args.get_int("lb-frequency"));
  dcfg.lb.strategy = "diffusion:threshold=" +
                     std::to_string(args.get_double("lb-threshold")) +
                     ",border=" + std::to_string(args.get_int("lb-border"));
  const par::DriverResult diff = par::make_engine(dcfg)->run().result;

  par::RunConfig acfg = cfg;
  acfg.workers = std::max(1, ranks / 2);  // 2 hardware threads per worker here
  acfg.overdecomposition = static_cast<int>(args.get_int("ampi-d"));
  acfg.lb.every = static_cast<std::uint32_t>(args.get_int("ampi-F"));
  acfg.lb.strategy = args.get_string("ampi-balancer");
  const auto ampi = par::run_ampi(acfg);

  std::cout << "drifting geometric cloud, r = " << args.get_double("r") << ", "
            << cfg.steps << " steps, " << ranks << " ranks\n\n";

  util::Table table({"impl", "verified", "seconds", "avg imb", "max/rank", "exchanged",
                     "LB actions", "LB bytes"});
  auto row = [&](const char* name, const par::DriverResult& r) {
    table.add_row({name, r.ok ? "yes" : "NO", util::Table::fmt(r.seconds, 3),
                   util::Table::fmt(mean(r.imbalance_series), 2),
                   util::Table::fmt_u64(r.max_particles_per_rank),
                   util::Table::fmt_u64(r.particles_exchanged),
                   util::Table::fmt_u64(r.lb_actions), util::Table::fmt_u64(r.lb_bytes)});
  };
  row("mpi-2d (none)", base);
  row("mpi-2d-LB (diffusion)", diff);
  row("ampi (vpr greedy)", ampi);
  table.print(std::cout);

  std::cout << "\nideal particles per rank: "
            << util::Table::fmt(base.ideal_particles_per_rank, 0) << "\n"
            << "phase breakdown (diffusion): compute " << util::Table::fmt(diff.phases.compute, 3)
            << " s, exchange " << util::Table::fmt(diff.phases.exchange, 3) << " s, lb "
            << util::Table::fmt(diff.phases.lb, 3) << " s\n";

  return base.ok && diff.ok && ampi.ok ? 0 : 1;
}
