// The async engine's performance claim (ROADMAP item 1): on a straggler
// workload the barriered sync loop serialises the world behind its most
// loaded ranks every step, while the async engine spreads the load by
// stealing VPs onto idle ranks and hides exchange latency behind
// compute via incremental iexchange delivery.
//
// The scenario is a particle band covering only rank 0's VP row: the
// k=1 horizontal streaming (3 cells/step in x) disperses any
// x-concentration within a few steps, but nothing moves in y, so the
// band is a *persistent* straggler. The sync baseline (no placement LB)
// is stuck with it for the whole run; async + `steal` flattens it at
// the first LB point.
//
// The gate follows the bench_service convention of scaling with the
// machine's actual parallelism: flattening a straggler can only pay
// when the idle ranks own real cores. With P usable cores a rank
// thread's wall share is max(load share, 1/P), so the achievable
// sync/async ratio is
//     bound(P) = max(1/px, 1/P) / max(1/ranks, 1/P)
// (px bottom-row ranks share the band under the sync Cart2D grid; async
// levels to 1/ranks). On a full machine (P >= ranks) the gate is the
// hard 1.15x; on starved machines (CI containers with 1-2 cores,
// bound = 1) the gate degrades to an overhead bound: async may not run
// worse than 0.5x sync even with zero parallelism to exploit. The
// overlap telemetry assertion holds everywhere.
#include <algorithm>
#include <iostream>
#include <thread>
#include <vector>

#include "comm/cart.hpp"
#include "comm/world.hpp"
#include "obs/registry.hpp"
#include "obs/sinks.hpp"
#include "par/engine.hpp"
#include "par/block.hpp"
#include "par/run_config.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace picprk;
  util::ArgParser args("bench_overlap",
                       "async engine vs sync loop on a straggler workload");
  args.add_int("cells", 64, "mesh cells per dimension");
  args.add_int("particles", 800000, "global particle count (all in the band)");
  args.add_int("steps", 24, "time steps per run");
  args.add_int("ranks", 4, "threadcomm ranks");
  args.add_int("d", 4, "async: over-decomposition degree");
  args.add_int("reps", 3, "repetitions per engine (best reported)");
  args.add_flag("smoke", false, "smaller sizes for CI");
  args.add_string("trace-out", "",
                  "write the async run's Chrome trace (shows compute/wait overlap)");
  if (!args.parse(argc, argv)) return 0;

  const bool smoke = args.get_flag("smoke");
  const int ranks = static_cast<int>(args.get_int("ranks"));
  const int reps = smoke ? 2 : static_cast<int>(args.get_int("reps"));

  // The persistent straggler: full-width band over rank 0's VP row.
  // Under the sync Cart2D(ranks) grid the band lands on the px
  // bottom-row ranks; under the async block VP assignment it lands
  // entirely on rank 0 until `steal` redistributes it.
  par::RunConfig cfg;
  const std::int64_t cells = args.get_int("cells");
  cfg.init.grid = pic::GridSpec(cells, 1.0);
  cfg.init.total_particles =
      static_cast<std::uint64_t>(smoke ? 300000 : args.get_int("particles"));
  const comm::BlockRange band = comm::block_range(cells, ranks, 0);
  cfg.init.distribution = pic::Patch{pic::CellRegion{0, cells, band.lo, band.hi}};
  cfg.init.k = 1;  // 3 cells/step in x: steady exchange, no y transport
  cfg.steps = static_cast<std::uint32_t>(smoke ? 12 : args.get_int("steps"));
  cfg.ranks = ranks;
  // Smoke halves the over-decomposition: d=4's narrower VP tiles inflate
  // single-core compute (cache pressure), and the starved-machine gate
  // is an overhead bound, not a parallelism claim.
  cfg.overdecomposition = smoke ? 2 : static_cast<int>(args.get_int("d"));
  cfg.lb.strategy = "steal";
  cfg.lb.every = 4;  // flatten early, then amortise the quiet-point cost

  // The sync leg is the baseline: the block driver with static bounds.
  par::RunConfig sync_cfg = cfg;
  sync_cfg.lb.strategy.clear();
  sync_cfg.lb.every = 0;
  cfg.impl = "async";
  const auto sync_once = [&] {
    double seconds = 0.0;
    bool ok = false;
    comm::World world(ranks);
    world.run([&](comm::Comm& comm) {
      const par::DriverResult r = par::run_block(comm, sync_cfg);
      if (comm.rank() == 0) {
        seconds = r.seconds;
        ok = r.ok;
      }
    });
    if (!ok) {
      std::cerr << "bench_overlap: sync verification failed\n";
      std::exit(1);
    }
    return seconds;
  };

  const auto async_once = [&] {
    const par::DriverResult r = par::make_engine(cfg)->run().result;
    if (!r.ok) {
      std::cerr << "bench_overlap: async verification failed\n";
      std::exit(1);
    }
    return r.seconds;
  };

  std::cout << "=== overlap: sync baseline vs async+steal, straggler band ===\n"
            << cfg.init.total_particles << " particles on rank 0's row of "
            << ranks << ", " << cells << "^2 cells, " << cfg.steps
            << " steps, d=" << cfg.overdecomposition << "\n\n";

  // Warm-up both paths (thread pools, allocators), then time.
  sync_once();
  async_once();

  double sync_best = 1e300, async_best = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    sync_best = std::min(sync_best, sync_once());
    async_best = std::min(async_best, async_once());
  }

  // One observed async run (untimed): prove the overlap actually
  // happened — payloads delivered while other VPs were still computing —
  // and optionally write the trace that shows compute/wait interleaving.
  obs::Registry registry;
  obs::Trace trace;
  par::RunConfig observed = cfg;
  observed.obs.registry = &registry;
  observed.obs.trace = &trace;
  const par::DriverResult or_ = par::make_engine(observed)->run().result;
  std::uint64_t overlap = 0, drained = 0, tokens = 0;
  for (const auto& c : registry.counters()) {
    if (c.name == "async/overlap_deliveries") overlap = c.value;
    if (c.name == "async/drain_deliveries") drained = c.value;
    if (c.name == "async/token_rounds") tokens = c.value;
  }
  const std::string trace_path = args.get_string("trace-out");
  if (!trace_path.empty() && !trace.write_json(trace_path)) {
    std::cerr << "bench_overlap: cannot write trace to " << trace_path << '\n';
  }

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const double p = static_cast<double>(std::min<unsigned>(hw, static_cast<unsigned>(ranks)));
  const comm::Cart2D sync_cart(ranks);
  const double sync_share = 1.0 / static_cast<double>(sync_cart.px());
  const double bound = std::max(sync_share, 1.0 / p) /
                       std::max(1.0 / static_cast<double>(ranks), 1.0 / p);
  const bool full_machine = hw >= static_cast<unsigned>(ranks);
  // Starved machines measure 0.56-0.68x here (the async engine's per-step
  // token ring and VP bookkeeping priced against zero parallel payoff);
  // 0.5 keeps headroom against timer noise while still catching a
  // catastrophic regression in the engine's serial overheads.
  const double gate = full_machine ? 1.15 : 0.5;

  const double speedup = async_best > 0 ? sync_best / async_best : 0.0;
  util::Table table({"engine", "seconds", "exchanged", "notes"});
  table.add_row({"sync baseline", util::Table::fmt(sync_best, 3), "-",
                 "stuck at lambda ~= " +
                     std::to_string(sync_cart.px()) + " all run"});
  table.add_row({"async + steal", util::Table::fmt(async_best, 3),
                 std::to_string(or_.particles_exchanged),
                 std::to_string(overlap) + " overlapped + " +
                     std::to_string(drained) + " drained deliveries, " +
                     std::to_string(tokens) + " token rounds"});
  table.print(std::cout);
  std::cout << "\nspeedup: " << util::Table::fmt(speedup, 2) << "x (gate "
            << util::Table::fmt(gate, 2) << "x; " << hw
            << " usable cores, achievable bound " << util::Table::fmt(bound, 2)
            << "x)\n";

  if (overlap + drained == 0) {
    std::cerr << "bench_overlap: no incremental deliveries recorded — the "
                 "engine did not overlap\n";
    return 1;
  }
  if (speedup < gate) {
    std::cerr << "bench_overlap: FAILED the overlap gate ("
              << (full_machine ? "full-parallelism 1.15x"
                               : "starved-machine 0.5x overhead bound")
              << ")\n";
    return 1;
  }
  std::cout << "OVERLAP GATE: pass\n";
  return 0;
}
