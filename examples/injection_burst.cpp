// Injection burst: the §III-E5 adaptiveness stress test.
//
// A uniform workload runs in balance until, at T/2, a large particle
// population is injected into one corner region — "injections/removals
// adjust abruptly the local amount of work". We watch how fast the
// diffusion scheme and the vpr runtime re-balance, comparing the sampled
// imbalance before and after the event.
//
//   ./injection_burst --ranks 4 --burst 80000
#include <iostream>

#include "par/ampi.hpp"
#include "par/engine.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

struct Phases {
  double before = 1.0;  ///< mean sampled imbalance pre-burst
  double shock = 1.0;   ///< peak imbalance right after the burst
  double after = 1.0;   ///< mean imbalance over the last quarter of the run
};

Phases split_series(const std::vector<double>& series, std::size_t burst_sample) {
  Phases p;
  if (series.empty()) return p;
  double sum = 0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < burst_sample && i < series.size(); ++i) {
    sum += series[i];
    ++n;
  }
  p.before = n ? sum / static_cast<double>(n) : 1.0;
  p.shock = 1.0;
  for (std::size_t i = burst_sample; i < series.size(); ++i) {
    p.shock = std::max(p.shock, series[i]);
  }
  sum = 0;
  n = 0;
  for (std::size_t i = series.size() * 3 / 4; i < series.size(); ++i) {
    sum += series[i];
    ++n;
  }
  p.after = n ? sum / static_cast<double>(n) : 1.0;
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace picprk;

  util::ArgParser args("injection_burst", "abrupt work injection vs load balancers");
  args.add_int("cells", 200, "mesh cells per dimension");
  args.add_int("particles", 40000, "initial particle count");
  args.add_int("burst", 80000, "particles injected at T/2");
  args.add_int("steps", 240, "time steps");
  args.add_int("ranks", 4, "ranks / workers");
  if (!args.parse(argc, argv)) return 0;

  const auto cells = args.get_int("cells");
  const auto steps = static_cast<std::uint32_t>(args.get_int("steps"));

  par::RunConfig cfg;
  cfg.init.grid = pic::GridSpec(cells, 1.0);
  cfg.init.total_particles = static_cast<std::uint64_t>(args.get_int("particles"));
  cfg.init.distribution = pic::Uniform{};
  cfg.steps = steps;
  cfg.sample_every = std::max(1u, steps / 60);
  // Inject into the lower-left quarter at T/2; removal of a slice near
  // the end keeps the checksum machinery honest too.
  cfg.events = pic::EventSchedule(
      {pic::InjectionEvent{steps / 2, pic::CellRegion{0, cells / 2, 0, cells / 2},
                           static_cast<std::uint64_t>(args.get_int("burst"))}},
      {pic::RemovalEvent{steps * 7 / 8, pic::CellRegion{0, cells, 0, cells / 4}, 0.3}});

  cfg.ranks = static_cast<int>(args.get_int("ranks"));
  const std::size_t burst_sample = (steps / 2) / cfg.sample_every;

  cfg.impl = "baseline";
  const par::DriverResult base = par::make_engine(cfg)->run().result;
  par::RunConfig dcfg = cfg;
  dcfg.impl = "diffusion";
  // The burst region is skewed in both directions: two-phase diffusion.
  dcfg.lb.strategy = "diffusion:threshold=0.05,border=2,two_phase=1";
  dcfg.lb.every = 4;
  const par::DriverResult diff = par::make_engine(dcfg)->run().result;

  par::RunConfig acfg = cfg;
  acfg.workers = 2;
  acfg.overdecomposition = 8;
  acfg.lb.every = 8;
  const auto ampi = par::run_ampi(acfg);

  std::cout << "uniform workload, burst of " << args.get_int("burst")
            << " particles into one quarter at step " << steps / 2 << "\n\n";

  util::Table table({"impl", "verified", "imb before", "imb peak after burst",
                     "imb settled", "final particles"});
  auto row = [&](const char* name, const par::DriverResult& r) {
    const Phases p = split_series(r.imbalance_series, burst_sample);
    table.add_row({name, r.ok ? "yes" : "NO", util::Table::fmt(p.before, 2),
                   util::Table::fmt(p.shock, 2), util::Table::fmt(p.after, 2),
                   util::Table::fmt_u64(r.final_particles)});
  };
  row("mpi-2d (none)", base);
  row("mpi-2d-LB (2-phase)", diff);
  row("ampi (vpr greedy)", ampi);
  table.print(std::cout);

  std::cout << "\nThe static decomposition stays at its post-burst imbalance; the\n"
               "balancers pull it back toward 1.0 — the §III-E5 adaptiveness test.\n";

  return base.ok && diff.ok && ampi.ok ? 0 : 1;
}
