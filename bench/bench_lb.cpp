// Strategy shoot-out on the real threaded drivers: every registered lb
// strategy runs the paper's §III-E1 drifting geometric cloud (r = 0.98)
// through the driver(s) matching its capabilities, reporting the
// steady-state imbalance λ it converges to and the migration volume it
// paid to get there — the two axes of the §IV cost/benefit trade-off.
//
// --smoke shrinks the problem for CI and additionally asserts the
// headline claim of the `adaptive` wrapper: at equal final λ (±10%),
// its migration volume never exceeds that of always-on diffusion.
// --json writes BENCH_lb.json (schema picprk-bench-v1).
#include <algorithm>
#include <iostream>
#include <vector>

#include "bench_json.hpp"
#include "comm/world.hpp"
#include "lb/registry.hpp"
#include "par/ampi.hpp"
#include "par/block.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

using namespace picprk;

/// Mean of the second half of the sampled λ series — the steady state
/// after the balancer has caught the drifting cloud (or failed to).
double steady_lambda(const std::vector<double>& series) {
  if (series.empty()) return 1.0;
  const std::size_t from = series.size() / 2;
  double s = 0;
  for (std::size_t i = from; i < series.size(); ++i) s += series[i];
  return s / static_cast<double>(series.size() - from);
}

struct Case {
  std::string driver;
  std::string strategy;
  par::DriverResult result;
};

par::RunConfig base_config(bool smoke) {
  par::RunConfig cfg;
  cfg.init.grid = pic::GridSpec(smoke ? 48 : 96, 1.0);
  cfg.init.total_particles = smoke ? 8000 : 40000;
  cfg.init.distribution = pic::Geometric{0.98};
  cfg.steps = smoke ? 96 : 240;
  cfg.sample_every = 4;
  cfg.lb.every = 8;
  cfg.ranks = 4;
  cfg.workers = 2;
  cfg.overdecomposition = 4;
  return cfg;
}

par::DriverResult run_bounds(const par::RunConfig& cfg) {
  par::DriverResult result;
  comm::World world(cfg.ranks);
  world.run([&](comm::Comm& comm) {
    const auto r = par::run_block(comm, cfg);
    if (comm.rank() == 0) result = r;
  });
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args("bench_lb",
                       "steady-state λ and migration volume per lb strategy");
  args.add_flag("smoke", false,
                "tiny sizes for CI + the adaptive-vs-diffusion volume assertion");
  args.add_flag("json", false, "also write BENCH_lb.json (schema picprk-bench-v1)");
  args.add_string("json-path", "BENCH_lb.json", "output path for --json");
  if (!args.parse(argc, argv)) return 0;
  const bool smoke = args.get_flag("smoke");
  const par::RunConfig base = base_config(smoke);

  std::cout << "=== lb strategy shoot-out (geometric r=0.98, "
            << base.init.grid.cells << " cells, " << base.init.total_particles
            << " particles, " << base.steps << " steps) ===\n\n";

  std::vector<Case> cases;
  for (const lb::Descriptor& d : lb::registered_strategies()) {
    if (d.bounds) {
      par::RunConfig cfg = base;
      cfg.lb.strategy = d.name;
      cases.push_back({"diffusion", d.name, run_bounds(cfg)});
    }
    if (d.placement) {
      par::RunConfig cfg = base;
      cfg.lb.strategy = d.name;
      cases.push_back({"ampi", d.name, par::run_ampi(cfg)});
    }
  }

  util::Table table({"driver", "strategy", "verified", "steady λ", "final λ",
                     "LB actions", "LB bytes", "seconds"});
  std::vector<util::JsonObject> results;
  for (const Case& c : cases) {
    const auto& r = c.result;
    const double steady = steady_lambda(r.imbalance_series);
    const double final_lambda =
        r.imbalance_series.empty() ? 1.0 : r.imbalance_series.back();
    table.add_row({c.driver, c.strategy, r.ok ? "yes" : "NO",
                   util::Table::fmt(steady, 3), util::Table::fmt(final_lambda, 3),
                   util::Table::fmt_u64(r.lb_actions), util::Table::fmt_u64(r.lb_bytes),
                   util::Table::fmt(r.seconds, 3)});
    util::JsonObject o;
    o.add("driver", c.driver);
    o.add("strategy", c.strategy);
    o.add("verified", r.ok);
    o.add("steady_lambda", steady);
    o.add("final_lambda", final_lambda);
    o.add("lb_actions", r.lb_actions);
    o.add("lb_bytes", r.lb_bytes);
    o.add("particles_exchanged", r.particles_exchanged);
    o.add("seconds", r.seconds);
    results.push_back(o);
  }
  table.print(std::cout);

  bool all_ok = true;
  for (const Case& c : cases) all_ok = all_ok && c.result.ok;
  if (!all_ok) {
    std::cout << "\nFAIL: at least one strategy failed verification\n";
    return 1;
  }

  // The adaptive claim: equal steady-state balance, never more volume.
  const auto find = [&](const char* driver, const char* name) -> const Case* {
    for (const Case& c : cases) {
      if (c.driver == driver && c.strategy == name) return &c;
    }
    return nullptr;
  };
  const Case* diff = find("diffusion", "diffusion");
  const Case* adpt = find("diffusion", "adaptive");
  if (diff != nullptr && adpt != nullptr) {
    const double l_diff = steady_lambda(diff->result.imbalance_series);
    const double l_adpt = steady_lambda(adpt->result.imbalance_series);
    std::cout << "\nadaptive vs always-on diffusion (bounds driver): λ "
              << util::Table::fmt(l_adpt, 3) << " vs " << util::Table::fmt(l_diff, 3)
              << ", bytes " << adpt->result.lb_bytes << " vs "
              << diff->result.lb_bytes << "\n";
    if (smoke) {
      const bool lambda_equal = l_adpt <= l_diff * 1.10;
      const bool volume_ok = adpt->result.lb_bytes <= diff->result.lb_bytes;
      if (!lambda_equal || !volume_ok) {
        std::cout << "FAIL: adaptive must match diffusion's steady λ within 10% "
                     "without exceeding its migration volume\n";
        return 1;
      }
      std::cout << "smoke assertion passed\n";
    }
  }

  if (args.get_flag("json")) {
    util::JsonObject config;
    config.add("cells", static_cast<std::int64_t>(base.init.grid.cells));
    config.add("particles", base.init.total_particles);
    config.add("steps", static_cast<std::uint64_t>(base.steps));
    config.add("r", 0.98);
    config.add("ranks", static_cast<std::int64_t>(base.ranks));
    config.add("workers", static_cast<std::int64_t>(base.workers));
    config.add("overdecomposition", static_cast<std::int64_t>(base.overdecomposition));
    config.add("lb_every", static_cast<std::uint64_t>(base.lb.every));
    config.add("smoke", smoke);
    if (!bench::write_bench_json(args.get_string("json-path"), "bench_lb", config,
                                 results)) {
      std::cout << "could not write " << args.get_string("json-path") << "\n";
      return 1;
    }
    std::cout << "wrote " << args.get_string("json-path") << "\n";
  }
  return 0;
}
