// Ablation benches for the design choices the paper discusses:
//
//  (a) §IV-B: the diffusion scheme's three parameters (frequency,
//      threshold τ, border width) "have interfering results ... and
//      therefore should be co-tuned" — a full parameter grid.
//  (b) §IV-C: "Charm++ provides not just one but a collection of load
//      balancing strategies" — a strategy shoot-out on the vpr model.
//  (c) §IV-B: x-only vs two-phase diffusion, on a workload whose skew is
//      not aligned with x (real threaded drivers, laptop scale).
#include <iostream>

#include "comm/world.hpp"
#include "common.hpp"
#include "par/block.hpp"
#include "par/irregular.hpp"
#include "util/cli.hpp"

namespace {

using namespace picprk;

void diffusion_grid(std::uint32_t steps) {
  const perfsim::Engine engine(bench::edison_model(),
                               perfsim::ColumnWorkload::from_expected(bench::fig6_workload()));
  const auto run = bench::paper_run(steps);
  const int cores = 96;

  std::cout << "--- (a) diffusion parameter co-tuning grid (model, " << cores
            << " cores) ---\n";
  util::Table table({"frequency", "tau", "border", "seconds", "imbalance", "moves"});
  double best = 1e300, worst = 0;
  for (std::uint32_t freq : {4u, 16u, 64u}) {
    for (double tau : {0.02, 0.10, 0.50}) {
      for (std::int64_t width : {std::int64_t{1}, std::int64_t{16}, std::int64_t{64}}) {
        const auto r =
            engine.run_diffusion(cores, run, perfsim::DiffusionModelParams{freq, tau, width});
        best = std::min(best, r.seconds);
        worst = std::max(worst, r.seconds);
        table.add_row({std::to_string(freq), util::Table::fmt(tau, 2),
                       std::to_string(width), util::Table::fmt(r.seconds, 1),
                       util::Table::fmt(r.avg_imbalance, 2),
                       util::Table::fmt_u64(r.migrations)});
      }
    }
  }
  table.print(std::cout);
  std::cout << "worst/best over the grid: " << util::Table::fmt(worst / best, 2)
            << "x  (mistuning penalty — the co-tuning claim of §IV-B)\n\n";
}

void balancer_shootout(std::uint32_t steps) {
  const perfsim::Engine engine(bench::edison_model(),
                               perfsim::ColumnWorkload::from_expected(bench::fig6_workload()));
  const auto run = bench::paper_run(steps);
  const int cores = 96;

  std::cout << "--- (b) vpr balancer strategy shoot-out (model, " << cores
            << " cores, d=4, F=640) ---\n";
  util::Table table({"strategy", "seconds", "imbalance", "migrations", "migrated MB"});
  for (const char* name : {"null", "greedy", "refine", "diffusion", "compact", "rotate"}) {
    perfsim::VprModelParams p;
    p.overdecomposition = 4;
    p.lb_interval = 640;
    p.balancer = name;
    const auto r = engine.run_vpr(cores, run, p);
    table.add_row({name, util::Table::fmt(r.seconds, 1),
                   util::Table::fmt(r.avg_imbalance, 2), util::Table::fmt_u64(r.migrations),
                   util::Table::fmt(r.migrated_mbytes, 0)});
  }
  table.print(std::cout);
  std::cout << '\n';
}

void hinted_balancer_at_scale(std::uint32_t steps) {
  // The paper's closing §V-B remark, quantified: a locality-hinted
  // balancer vs locality-blind greedy in the strong-scaling regime where
  // fragmentation hurts (384 cores, 16 nodes).
  const perfsim::Engine engine(bench::edison_model(),
                               perfsim::ColumnWorkload::from_expected(bench::fig6_workload()));
  const auto run = bench::paper_run(steps);

  std::cout << "--- (d) hinted (compact) vs unhinted (greedy) balancer at 384 cores ---\n";
  util::Table table({"strategy", "seconds", "imbalance", "migrated MB"});
  for (const char* name : {"greedy", "compact"}) {
    perfsim::VprModelParams p;
    p.overdecomposition = 4;
    p.lb_interval = 640;
    p.balancer = name;
    const auto r = engine.run_vpr(384, run, p);
    table.add_row({name, util::Table::fmt(r.seconds, 2),
                   util::Table::fmt(r.avg_imbalance, 2),
                   util::Table::fmt(r.migrated_mbytes, 0)});
  }
  table.print(std::cout);
  std::cout << '\n';
}

void two_phase_ablation() {
  std::cout << "--- (c) x-only vs two-phase diffusion (real drivers, 4 ranks) ---\n"
            << "workload: corner patch (skew in both directions), 200 steps\n";
  par::RunConfig cfg;
  cfg.init.grid = pic::GridSpec(128, 1.0);
  cfg.init.total_particles = 30000;
  cfg.init.distribution = pic::Patch{pic::CellRegion{0, 40, 0, 40}};
  cfg.steps = 200;
  cfg.sample_every = 10;
  cfg.lb.every = 0;  // baseline: static bounds

  par::DriverResult base, xonly, both;
  comm::World world(4);
  world.run([&](comm::Comm& comm) {
    const auto b = par::run_block(comm, cfg);
    par::RunConfig xcfg = cfg;
    xcfg.lb.strategy = "diffusion:threshold=0.05,border=2";
    xcfg.lb.every = 8;
    const auto x = par::run_block(comm, xcfg);
    par::RunConfig xycfg = xcfg;
    xycfg.lb.strategy = "diffusion:threshold=0.05,border=2,two_phase=1";
    const auto xy = par::run_block(comm, xycfg);
    if (comm.rank() == 0) {
      base = b;
      xonly = x;
      both = xy;
    }
  });

  auto mean = [](const std::vector<double>& v) {
    double s = 0;
    for (double x : v) s += x;
    return v.empty() ? 1.0 : s / static_cast<double>(v.size());
  };
  util::Table table({"scheme", "verified", "avg imbalance", "max particles/rank"});
  table.add_row({"static", base.ok ? "yes" : "NO", util::Table::fmt(mean(base.imbalance_series), 2),
                 util::Table::fmt_u64(base.max_particles_per_rank)});
  table.add_row({"diffusion x-only", xonly.ok ? "yes" : "NO",
                 util::Table::fmt(mean(xonly.imbalance_series), 2),
                 util::Table::fmt_u64(xonly.max_particles_per_rank)});
  table.add_row({"diffusion two-phase", both.ok ? "yes" : "NO",
                 util::Table::fmt(mean(both.imbalance_series), 2),
                 util::Table::fmt_u64(both.max_particles_per_rank)});
  table.print(std::cout);
}

void irregular_vs_rectangular() {
  // (e) The §IV-B alternative the paper rejected, measured: the
  // 8-neighbor irregular scheme balances too, but its subdomains
  // fragment (growing perimeter ⇒ irregular communication), while the
  // rectangular two-phase scheme keeps the Cartesian product structure.
  std::cout << "--- (e) irregular 8-neighbor scheme vs rectangular diffusion "
               "(real drivers, 4 ranks) ---\n";
  par::RunConfig cfg;
  cfg.init.grid = pic::GridSpec(64, 1.0);
  cfg.init.total_particles = 20000;
  cfg.init.distribution = pic::Geometric{0.9};
  cfg.steps = 200;
  cfg.sample_every = 10;

  par::DriverResult rect;
  par::IrregularResult irr;
  comm::World world(4);
  world.run([&](comm::Comm& comm) {
    par::RunConfig dcfg = cfg;
    dcfg.lb.strategy = "diffusion:threshold=0.05,border=4";
    dcfg.lb.every = 4;
    const auto r = par::run_block(comm, dcfg);
    par::IrregularParams ip;
    ip.frequency = 4;
    ip.threshold = 0.05;
    ip.quota = 16;
    const auto i = par::run_irregular(comm, cfg, ip);
    if (comm.rank() == 0) {
      rect = r;
      irr = i;
    }
  });
  auto mean = [](const std::vector<double>& v) {
    double s = 0;
    for (double x : v) s += x;
    return v.empty() ? 1.0 : s / static_cast<double>(v.size());
  };
  util::Table table({"scheme", "verified", "avg imbalance", "final perimeter (cells)"});
  table.add_row({"rectangular diffusion", rect.ok ? "yes" : "NO",
                 util::Table::fmt(mean(rect.imbalance_series), 2),
                 "rectangular (bounded)"});
  table.add_row({"irregular 8-neighbor", irr.driver.ok ? "yes" : "NO",
                 util::Table::fmt(mean(irr.driver.imbalance_series), 2),
                 util::Table::fmt_u64(static_cast<std::uint64_t>(irr.final_perimeter)) +
                     " (from " +
                     util::Table::fmt_u64(
                         static_cast<std::uint64_t>(irr.initial_perimeter)) +
                     ")"});
  table.print(std::cout);
  std::cout << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args("bench_lb_ablation", "load-balancing ablations (§IV-B/§IV-C)");
  args.add_int("steps", 2000, "model steps for the parameter grids");
  if (!args.parse(argc, argv)) return 0;

  std::cout << "=== Load-balancing ablations ===\n\n";
  const auto steps = static_cast<std::uint32_t>(args.get_int("steps"));
  diffusion_grid(steps);
  balancer_shootout(steps);
  hinted_balancer_at_scale(steps);
  two_phase_ablation();
  irregular_vs_rectangular();
  return 0;
}
