// picprk — the command-line front end to the PIC PRK, in the spirit of
// the official Parallel Research Kernels binaries: every knob of the
// specification (§III) and of the three reference implementations (§IV)
// is a flag, and the run ends with the verification verdict.
//
// Examples:
//   picprk --impl serial --cells 400 --particles 200000 --steps 400
//   picprk --impl diffusion --ranks 6 --dist geometric --r 0.98
//          --balancer diffusion:border=4,two_phase=1 --lb-every 8
//   picprk --impl ampi --workers 2 --d 8 --lb-every 16 --balancer compact
//   picprk --impl async --ranks 4 --d 4 --balancer steal --lb-every 8
//   picprk --balancer list                     # the lb strategy registry
//   picprk --impl model --cores 384 --steps 6000   # performance model
//   picprk --impl baseline --ranks 4 --faults kill:rank=1,step=40
//          --checkpoint-every 16 --timeout-ms 2000   # resilience drill
//   picprk --impl diffusion --faults "drop:prob=0.01;kill:rank=1,step=40"
//          --reliable --recover local --checkpoint-every 1   # full ladder
//   echo "submit a:dist=geometric,particles=50000" | picprk serve
//          --workers 4 --metrics-dir out          # multi-tenant job server
//
// Exit codes: 0 verified, 1 verification failed, 2 usage/unhandled error,
// 3 comm timeout, 4 deadlock detected, 5 unrecovered rank death. Every
// run additionally prints one machine-readable "RESULT key=value ..."
// line on stdout for harnesses to parse.
#include <fstream>
#include <iostream>

#include "comm/world.hpp"
#include "ft/fault.hpp"
#include "lb/registry.hpp"
#include "obs/registry.hpp"
#include "obs/sinks.hpp"
#include "par/engine.hpp"
#include "perfsim/engine.hpp"
#include "svc/server.hpp"
#include "util/cli.hpp"
#include "util/report.hpp"
#include "util/table.hpp"

namespace {

using namespace picprk;

pic::Distribution parse_distribution(const util::ArgParser& args) {
  const std::string name = args.get_string("dist");
  if (name == "uniform") return pic::Uniform{};
  if (name == "geometric") return pic::Geometric{args.get_double("r")};
  if (name == "sinusoidal") return pic::Sinusoidal{};
  if (name == "linear")
    return pic::Linear{args.get_double("alpha"), args.get_double("beta")};
  if (name == "patch") {
    const auto cells = args.get_int("cells");
    return pic::Patch{pic::CellRegion{args.get_int("patch-x0"),
                                      std::min(args.get_int("patch-x1"), cells),
                                      args.get_int("patch-y0"),
                                      std::min(args.get_int("patch-y1"), cells)}};
  }
  throw std::invalid_argument("unknown --dist: " + name +
                              " (uniform|geometric|sinusoidal|linear|patch)");
}

pic::EventSchedule parse_events(const util::ArgParser& args, std::int64_t cells) {
  std::vector<pic::InjectionEvent> injections;
  std::vector<pic::RemovalEvent> removals;
  if (args.get_int("inject-count") > 0) {
    injections.push_back(pic::InjectionEvent{
        static_cast<std::uint32_t>(args.get_int("inject-step")),
        pic::CellRegion{0, cells / 2, 0, cells / 2},
        static_cast<std::uint64_t>(args.get_int("inject-count"))});
  }
  if (args.get_double("remove-fraction") > 0) {
    removals.push_back(pic::RemovalEvent{
        static_cast<std::uint32_t>(args.get_int("remove-step")),
        pic::CellRegion{0, cells, 0, cells}, args.get_double("remove-fraction")});
  }
  return pic::EventSchedule(std::move(injections), std::move(removals));
}

/// `--balancer list`: the registry as a table (name, capabilities,
/// summary) — the enumerable assessment matrix of the lb subsystem.
int print_balancer_list() {
  util::Table table({"name", "bounds", "placement", "degraded", "summary"});
  for (const lb::Descriptor& d : lb::registered_strategies()) {
    table.add_row({d.name, d.bounds ? "yes" : "-", d.placement ? "yes" : "-",
                   d.degraded ? "yes" : "-", d.summary});
  }
  table.print(std::cout);
  return 0;
}

/// Resolves the uniform --balancer/--lb-every selection into LbOptions.
/// The strategy-specific knobs travel inside the spec string only —
/// the pre-v10 per-driver flags (--lb-threshold, --lb-border,
/// --two-phase, --lb-frequency, --F) were removed; see
/// docs/LOAD_BALANCING.md "Migrating from the removed flags".
par::LbOptions resolve_lb_options(const util::ArgParser& args) {
  par::LbOptions lb;
  lb.strategy = args.get_string("balancer");
  lb.every = static_cast<std::uint32_t>(args.get_int("lb-every"));
  lb.measured = args.get_flag("measured-load");
  return lb;
}

/// The run's knobs as the "config" object of the metrics document, so
/// archived runs are self-describing (same idea as bench_json.hpp).
util::JsonObject run_config_json(const util::ArgParser& args, const std::string& impl) {
  util::JsonObject config;
  config.add("impl", impl);
  config.add("cells", args.get_int("cells"));
  config.add("particles", args.get_int("particles"));
  config.add("steps", args.get_int("steps"));
  config.add("k", args.get_int("k"));
  config.add("m", args.get_int("m"));
  config.add("dist", args.get_string("dist"));
  config.add("ranks", args.get_int("ranks"));
  config.add("workers", args.get_int("workers"));
  config.add("overdecomposition", args.get_int("d"));
  config.add("balancer", args.get_string("balancer"));
  config.add("lb_every", args.get_int("lb-every"));
  return config;
}

/// Post-run sink flush: writes the requested trace/metrics files and
/// prints the instrument summary tables. No-op when neither --trace-out
/// nor --metrics-out was given.
void flush_observability(const util::ArgParser& args, const std::string& impl,
                         const obs::Registry& registry, const obs::Trace& trace,
                         const std::vector<obs::StepSample>& samples) {
  const std::string trace_path = args.get_string("trace-out");
  const std::string metrics_path = args.get_string("metrics-out");
  if (trace_path.empty() && metrics_path.empty()) return;
  if (!trace_path.empty() && !trace.write_json(trace_path)) {
    std::cerr << "picprk: cannot write trace to " << trace_path << '\n';
  }
  if (!metrics_path.empty() &&
      !obs::write_metrics_json(metrics_path, "picprk", run_config_json(args, impl),
                               registry, samples)) {
    std::cerr << "picprk: cannot write metrics to " << metrics_path << '\n';
  }
  obs::print_summary(std::cout, registry, samples);
}

/// `picprk serve`: the multi-tenant job server (docs/SERVICE.md). Jobs
/// arrive as submit/cancel/drain lines on stdin or from --jobs; every
/// tenant prints its own RESULT line and (with --metrics-dir) its own
/// picprk-bench-v1 document.
int run_serve(int argc, char** argv) {
  util::ArgParser args("picprk serve",
                       "multi-tenant job server: many kernels, one shared runtime");
  args.add_int("workers", 4, "shared-pool worker threads");
  args.add_string("scheduler", "greedy",
                  "cross-job placement strategy (lb registry spec)");
  args.add_int("quantum", 8, "supersteps granted per cycle at weight 1");
  args.add_int("queue-capacity", 16,
               "admission bound: live jobs beyond this are rejected");
  args.add_string("jobs", "-", "command file with submit/cancel/drain lines "
                               "('-' = stdin)");
  args.add_string("metrics-dir", "",
                  "write per-job metrics JSON documents into this directory");
  args.add_string("trace-out", "",
                  "write a Chrome trace with one lane per job (pid = job id)");
  args.add_flag("no-steal", false,
                "execute the cross-job placement verbatim (no work stealing)");
  args.add_flag("static-cost", false,
                "ignore measured step cost in placement (reproducible plans)");
  if (!args.parse(argc, argv)) return 0;

  svc::ServerConfig cfg;
  cfg.workers = static_cast<int>(args.get_int("workers"));
  cfg.scheduler = args.get_string("scheduler");
  cfg.quantum = static_cast<std::uint32_t>(args.get_int("quantum"));
  cfg.queue_capacity = static_cast<std::size_t>(args.get_int("queue-capacity"));
  cfg.metrics_dir = args.get_string("metrics-dir");
  cfg.trace_path = args.get_string("trace-out");
  cfg.allow_steal = !args.get_flag("no-steal");
  cfg.measured_cost = !args.get_flag("static-cost");
  svc::Server server(cfg);

  const std::string jobs_path = args.get_string("jobs");
  if (jobs_path == "-") return server.run_commands(std::cin, std::cout);
  std::ifstream in(jobs_path);
  if (!in) {
    std::cerr << "picprk serve: cannot open " << jobs_path << '\n';
    return 2;
  }
  return server.run_commands(in, std::cout);
}

/// Selected implementation, for the RESULT line of a faulted run.
std::string g_impl = "unknown";

/// Machine-readable failure line + exit code for a typed fault outcome.
int report_fault(const char* status, const std::string& what, int code) {
  std::cerr << "picprk: " << what << '\n';
  std::cout << util::ResultLine(g_impl).add("status", status).str() << '\n';
  return code;
}

}  // namespace

int main(int argc, char** argv) try {
  // Subcommand dispatch: `picprk serve` owns its own flag set.
  if (argc >= 2 && std::string(argv[1]) == "serve") {
    return run_serve(argc - 1, argv + 1);
  }

  // Targeted rejection of the pre-v10 LB flags: the generic "unknown
  // option" would leave users guessing where the knob went.
  for (int i = 1; i < argc; ++i) {
    const std::string flag(argv[i]);
    if (flag == "--lb-threshold" || flag == "--lb-border" ||
        flag == "--two-phase" || flag == "--lb-frequency" || flag == "--F") {
      std::cerr << "picprk: " << flag
                << " was removed; use --balancer name[:key=val,...] and "
                   "--lb-every (see docs/LOAD_BALANCING.md \"Migrating from "
                   "the removed flags\")\n";
      return 2;
    }
  }

  util::ArgParser args("picprk", "the PIC Parallel Research Kernel");
  args.add_string("impl", "serial",
                  "serial | baseline | diffusion | ampi | async | model");
  args.add_int("cells", 200, "mesh cells per dimension (even)");
  args.add_int("particles", 100000, "requested particle count");
  args.add_int("steps", 200, "time steps");
  args.add_int("k", 0, "charge multiple: (2k+1) cells/step in x");
  args.add_int("m", 0, "initial vertical speed: m cells/step");
  args.add_int("seed", 0x5EEDF00D, "initialisation seed");
  args.add_flag("rotate90", false, "rotate the distribution by 90 degrees");
  // Distribution.
  args.add_string("dist", "geometric", "uniform|geometric|sinusoidal|linear|patch");
  args.add_double("r", 0.99, "geometric ratio");
  args.add_double("alpha", 1.0, "linear distribution alpha");
  args.add_double("beta", 1.0, "linear distribution beta");
  args.add_int("patch-x0", 0, "patch region x0 (cells)");
  args.add_int("patch-x1", 100, "patch region x1");
  args.add_int("patch-y0", 0, "patch region y0");
  args.add_int("patch-y1", 100, "patch region y1");
  // Events.
  args.add_int("inject-count", 0, "particles injected into the lower-left quarter");
  args.add_int("inject-step", 0, "injection time step");
  args.add_double("remove-fraction", 0.0, "fraction removed domain-wide");
  args.add_int("remove-step", 0, "removal time step");
  // Parallel knobs.
  args.add_int("ranks", 4, "threadcomm ranks (baseline/diffusion)");
  args.add_string("balancer", "",
                  "lb strategy spec name[:key=val,...]; 'list' prints the registry; "
                  "empty = impl default (diffusion / greedy)");
  args.add_int("lb-every", 16, "steps between LB invocations (0 = never)");
  args.add_flag("measured-load", false, "balance on measured compute time");
  args.add_int("workers", 2, "ampi: worker threads");
  args.add_int("d", 4, "ampi/async: over-decomposition degree");
  // Resilience (docs/RESILIENCE.md).
  args.add_string("faults", "",
                  "fault plan, e.g. kill:rank=1,step=40;drop:prob=0.01,src=0");
  args.add_int("fault-seed", 1, "seed for probabilistic message faults");
  args.add_int("checkpoint-every", 0, "buddy-checkpoint every N steps (0 = off)");
  args.add_int("timeout-ms", 0, "blocking recv/probe deadline in ms (0 = none)");
  args.add_int("deadlock-ms", 0, "deadlock-detector window in ms (0 = off)");
  args.add_int("max-recoveries", 3, "rollbacks before giving up");
  args.add_string("recover", "rollback",
                  "repair rung for confirmed rank failures: rollback | local "
                  "(local = in-place buddy restore, survivors replay <= 1 step)");
  args.add_flag("reliable", false,
                "in-band reliable transport (seq/ack/retransmit): message "
                "faults heal without any rollback");
  args.add_int("rto-ms", 20, "reliable transport: base retransmit timer in ms");
  args.add_int("retransmit-budget", 8,
               "reliable transport: retransmissions per message before the "
               "transport abandons it");
  // Performance model.
  args.add_int("cores", 96, "model: core count");
  // Observability (docs/OBSERVABILITY.md); parallel drivers only.
  args.add_string("metrics-out", "", "write metrics JSON (picprk-bench-v1 schema)");
  args.add_string("trace-out", "", "write a Chrome trace_event JSON timeline");
  args.add_int("sample-every", 0,
               "steps between imbalance samples (0 = every step when observing)");
  if (!args.parse(argc, argv)) return 0;

  if (args.get_string("balancer") == "list") return print_balancer_list();

  pic::InitParams init;
  init.grid = pic::GridSpec(args.get_int("cells"), 1.0);
  init.total_particles = static_cast<std::uint64_t>(args.get_int("particles"));
  init.distribution = parse_distribution(args);
  init.k = static_cast<std::int32_t>(args.get_int("k"));
  init.m = static_cast<std::int32_t>(args.get_int("m"));
  init.seed = static_cast<std::uint64_t>(args.get_int("seed"));
  init.rotate90 = args.get_flag("rotate90");
  const auto steps = static_cast<std::uint32_t>(args.get_int("steps"));
  const std::string impl = args.get_string("impl");
  g_impl = impl;

  if (impl == "model") {
    perfsim::MachineModel machine;
    machine.t_particle = 140e-9;
    const perfsim::Engine engine(machine, perfsim::ColumnWorkload::from_expected(init));
    perfsim::RunConfig run;
    run.steps = steps;
    run.shift_per_step = 2 * init.k + 1;
    const int cores = static_cast<int>(args.get_int("cores"));
    const auto base = engine.run_static(cores, run);
    // The diffusion column of the model reads its knobs from the same
    // --balancer spec as the real driver (defaults match lb/diffusion).
    perfsim::DiffusionModelParams dp;
    dp.frequency = static_cast<std::uint32_t>(args.get_int("lb-every"));
    dp.threshold = 0.1;
    dp.border_width = 1;
    const std::string spec_text = args.get_string("balancer");
    const lb::ParsedSpec spec =
        lb::parse_spec(spec_text.empty() ? "diffusion" : spec_text);
    if (auto it = spec.options.find("threshold"); it != spec.options.end()) {
      dp.threshold = util::parse_double(it->second);
    }
    if (auto it = spec.options.find("border"); it != spec.options.end()) {
      dp.border_width = util::parse_int(it->second);
    }
    const auto diff = engine.run_diffusion(cores, run, dp);
    perfsim::VprModelParams vp;
    vp.overdecomposition = static_cast<int>(args.get_int("d"));
    vp.lb_interval = static_cast<std::uint32_t>(args.get_int("lb-every"));
    if (!spec_text.empty()) vp.balancer = spec_text;
    const auto ampi = engine.run_vpr(cores, run, vp);
    util::Table table({"impl", "seconds", "avg imbalance", "max particles/core"});
    table.add_row({"mpi-2d", util::Table::fmt(base.seconds, 2),
                   util::Table::fmt(base.avg_imbalance, 2),
                   util::Table::fmt(base.max_particles_final, 0)});
    table.add_row({"mpi-2d-LB", util::Table::fmt(diff.seconds, 2),
                   util::Table::fmt(diff.avg_imbalance, 2),
                   util::Table::fmt(diff.max_particles_final, 0)});
    table.add_row({"ampi", util::Table::fmt(ampi.seconds, 2),
                   util::Table::fmt(ampi.avg_imbalance, 2),
                   util::Table::fmt(ampi.max_particles_final, 0)});
    table.print(std::cout);
    return 0;
  }

  // Everything below runs a real kernel: parse the command line into
  // one RunConfig and hand it to the engine named by --impl.
  par::RunConfig cfg;
  cfg.impl = impl;
  cfg.init = init;
  cfg.steps = steps;
  cfg.events = parse_events(args, init.grid.cells);
  cfg.ranks = static_cast<int>(args.get_int("ranks"));
  cfg.workers = static_cast<int>(args.get_int("workers"));
  cfg.overdecomposition = static_cast<int>(args.get_int("d"));
  cfg.lb = resolve_lb_options(args);

  // Telemetry sinks live in main so one registry/trace spans the whole
  // run regardless of driver; with neither flag given the hooks stay
  // null and the drivers run dark.
  const bool observing = !args.get_string("metrics-out").empty() ||
                         !args.get_string("trace-out").empty();
  obs::Registry registry;
  obs::Trace trace;
  if (observing) {
    cfg.obs.registry = &registry;
    cfg.obs.trace = &trace;
    const auto stride = static_cast<std::uint32_t>(args.get_int("sample-every"));
    cfg.sample_every = stride > 0 ? stride : 1;
  } else if (args.get_int("sample-every") > 0) {
    cfg.sample_every = static_cast<std::uint32_t>(args.get_int("sample-every"));
  }

  const std::string fault_text = args.get_string("faults");
  cfg.resilience.plan = ft::FaultPlan::parse(
      fault_text, static_cast<std::uint64_t>(args.get_int("fault-seed")));
  cfg.resilience.checkpoint_every =
      static_cast<std::uint32_t>(args.get_int("checkpoint-every"));
  cfg.resilience.timeout_ms = static_cast<int>(args.get_int("timeout-ms"));
  cfg.resilience.deadlock_ms = static_cast<int>(args.get_int("deadlock-ms"));
  cfg.resilience.max_recoveries =
      static_cast<std::uint32_t>(args.get_int("max-recoveries"));
  const std::string recover = args.get_string("recover");
  if (recover == "local") {
    cfg.resilience.recovery = par::RecoveryMode::kLocal;
  } else if (recover != "rollback") {
    throw std::invalid_argument("unknown --recover: " + recover +
                                " (rollback|local)");
  }
  cfg.resilience.reliable = args.get_flag("reliable");
  cfg.resilience.rto_ms = static_cast<int>(args.get_int("rto-ms"));
  cfg.resilience.retransmit_budget =
      static_cast<int>(args.get_int("retransmit-budget"));
  // make_engine validates the resilience knobs and resolves --impl; an
  // unknown impl surfaces as std::invalid_argument (exit 2) below. The
  // engine owns the whole run: world/hook wiring, the resilient re-run
  // loop and telemetry absorption into cfg.obs.registry.
  const std::unique_ptr<par::Engine> engine = par::make_engine(cfg);
  const par::RunReport result = engine->run();
  if (observing) {
    flush_observability(args, impl, registry, trace, result.result.step_samples);
  }
  std::cout << result.human_summary() << '\n' << result.result_line() << '\n';
  return result.exit_code();
} catch (const picprk::comm::CommTimeout& e) {
  return report_fault("comm-timeout", e.what(), 3);
} catch (const picprk::comm::DeadlockDetected& e) {
  return report_fault("deadlock", e.what(), 4);
} catch (const picprk::ft::RankKilled& e) {
  return report_fault("rank-killed", e.what(), 5);
} catch (const std::exception& e) {
  std::cerr << "picprk: " << e.what() << '\n';
  return 2;
}
