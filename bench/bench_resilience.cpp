// Resilience cost benchmark (docs/RESILIENCE.md):
//
//  (a) checkpoint overhead — the same fault-free run with buddy
//      checkpointing off vs on at several cadences, reporting the wall-
//      time overhead and the snapshot bytes shipped;
//  (b) recovery latency — an injected rank death mid-run, reporting the
//      extra wall time of rollback + replay over the fault-free run;
//  (c) the recovery ladder — total overhead of each rung at matched
//      fault pressure: in-band retry (reliable transport healing seeded
//      message faults), localized recovery (buddy restore of a killed
//      rank, survivors replay <= 1 step) and classical full rollback of
//      the same kill. Repeated --reps times with p50/p99 over the wall
//      times (util::histogram_quantile); --json writes the legs as a
//      picprk-bench-v1 document.
//
// All sections verify every run (closed-form positions + id checksum),
// so the numbers are only reported for runs that stayed correct.
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "par/block.hpp"
#include "par/resilient.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace picprk;

par::RunConfig make_config(std::int64_t cells, std::uint64_t particles,
                           std::uint32_t steps) {
  par::RunConfig cfg;
  cfg.init.grid = pic::GridSpec(cells, 1.0);
  cfg.init.total_particles = particles;
  cfg.init.distribution = pic::Geometric{0.99};
  cfg.steps = steps;
  cfg.lb.every = 0;  // baseline: static bounds
  return cfg;
}

par::DriverResult run_once(int ranks, const par::RunConfig& cfg,
                           const par::ResilienceOptions& opts,
                           par::ResilienceTelemetry* telemetry = nullptr) {
  par::RunConfig run = cfg;
  run.ranks = ranks;
  run.resilience = opts;
  return par::run_resilient(run, &par::run_block, telemetry);
}

void checkpoint_overhead(int ranks, const par::RunConfig& cfg) {
  std::cout << "--- (a) buddy-checkpoint overhead (baseline, " << ranks
            << " ranks, " << cfg.steps << " steps) ---\n";

  const auto base = run_once(ranks, cfg, par::ResilienceOptions{});
  if (!base.ok) {
    std::cout << "fault-free reference failed verification; aborting\n";
    return;
  }

  util::Table table({"checkpoint every", "verified", "seconds", "overhead",
                     "rounds", "snapshot MB"});
  table.add_row({"off", "yes", util::Table::fmt(base.seconds, 3), "--", "0", "0.0"});
  for (std::uint32_t every : {64u, 16u, 4u}) {
    par::ResilienceOptions opts;
    opts.checkpoint_every = every;
    const auto r = run_once(ranks, cfg, opts);
    const double overhead = base.seconds > 0 ? r.seconds / base.seconds - 1.0 : 0.0;
    table.add_row({std::to_string(every), r.ok ? "yes" : "NO",
                   util::Table::fmt(r.seconds, 3),
                   util::Table::fmt(100.0 * overhead, 1) + "%",
                   util::Table::fmt_u64(r.checkpoints),
                   util::Table::fmt(static_cast<double>(r.checkpoint_bytes) / 1.0e6, 1)});
  }
  table.print(std::cout);
  std::cout << '\n';
}

void recovery_latency(int ranks, const par::RunConfig& cfg) {
  std::cout << "--- (b) rank-death recovery latency (baseline, " << ranks
            << " ranks, kill at step " << cfg.steps / 2 << ") ---\n";

  // DriverResult::seconds covers only the final (successful) stepping
  // loop; recovery latency is the *total* wall time including the
  // aborted attempt, so time the whole run_resilient call.
  par::ResilienceOptions ckpt_only;
  ckpt_only.checkpoint_every = 16;
  util::Timer base_wall;
  const auto base = run_once(ranks, cfg, ckpt_only);
  const double base_seconds = base_wall.elapsed();

  util::Table table({"scenario", "verified", "wall s", "recoveries", "replayed steps"});
  table.add_row({"fault-free", base.ok ? "yes" : "NO",
                 util::Table::fmt(base_seconds, 3), "0", "0"});

  par::ResilienceOptions faulty = ckpt_only;
  faulty.plan = ft::FaultPlan::parse(
      "kill:rank=1,step=" + std::to_string(cfg.steps / 2), /*seed=*/1);
  par::ResilienceTelemetry telemetry;
  util::Timer faulty_wall;
  const auto r = run_once(ranks, cfg, faulty, &telemetry);
  const double faulty_seconds = faulty_wall.elapsed();
  // The kill fires at steps/2; the rollback target is the last checkpoint
  // at or below it, so the replay distance is steps/2 mod cadence.
  const std::uint32_t replayed = (cfg.steps / 2) % ckpt_only.checkpoint_every;
  table.add_row({"kill + rollback", r.ok ? "yes" : "NO",
                 util::Table::fmt(faulty_seconds, 3), std::to_string(r.recoveries),
                 std::to_string(replayed)});
  table.print(std::cout);
  std::cout << "recovery cost: " << util::Table::fmt(faulty_seconds - base_seconds, 3)
            << " s over the fault-free run (" << telemetry.residual_messages
            << " residual messages drained at abort)\n";
}

/// p50/p99 of a small sample through the shared bucketed-quantile path
/// (util::histogram_quantile), so the bench reports the same quantile
/// semantics as the obs subsystem's histograms.
struct Quantiles {
  double p50 = 0.0, p99 = 0.0;
};

Quantiles bucketed_quantiles(const std::vector<double>& values) {
  if (values.empty()) return {};
  const double hi = *std::max_element(values.begin(), values.end());
  util::Histogram hist(0.0, hi > 0.0 ? hi * 1.01 : 1.0, 64);
  for (double v : values) hist.add(v);
  return {hist.quantile(0.5), hist.quantile(0.99)};
}

/// (c) One rung of the recovery ladder, run `reps` times.
struct LadderLeg {
  std::string name;
  par::ResilienceOptions opts;
};

void recovery_ladder(int ranks, const par::RunConfig& cfg, int reps,
                     std::vector<util::JsonObject>* json_legs) {
  std::cout << "--- (c) the recovery ladder: total overhead per rung ("
            << ranks << " ranks, " << reps << " reps) ---\n";

  // Fault-free reference (no ft at all): the baseline every rung's
  // total overhead is charged against, checkpointing cost included.
  std::vector<double> clean_walls;
  for (int i = 0; i < reps; ++i) {
    util::Timer wall;
    const auto r = run_once(ranks, cfg, par::ResilienceOptions{});
    if (!r.ok) {
      std::cout << "fault-free reference failed verification; aborting\n";
      return;
    }
    clean_walls.push_back(wall.elapsed());
  }
  const double clean_p50 = bucketed_quantiles(clean_walls).p50;

  const std::string kill_spec =
      "kill:rank=1,step=" + std::to_string(cfg.steps / 2);
  std::vector<LadderLeg> legs;
  {
    // Rung 1: message faults only, healed entirely in-band — the run
    // never aborts, never even checkpoints.
    LadderLeg leg{"inband-retry", {}};
    leg.opts.plan = ft::FaultPlan::parse(
        "drop:prob=0.01;dup:prob=0.005;delay:prob=0.01,ms=1", /*seed=*/4242);
    leg.opts.reliable = true;
    leg.opts.rto_ms = 5;
    leg.opts.timeout_ms = 10000;
    legs.push_back(leg);
  }
  {
    // Rung 2: a confirmed rank death repaired in place from the buddy
    // copy; survivors replay at most one step (cadence forced to 1).
    LadderLeg leg{"localized", {}};
    leg.opts.plan = ft::FaultPlan::parse(kill_spec, /*seed=*/1);
    leg.opts.recovery = par::RecoveryMode::kLocal;
    leg.opts.checkpoint_every = 1;
    leg.opts.timeout_ms = 10000;
    legs.push_back(leg);
  }
  {
    // Rung 3: the same kill repaired by tearing the world down and
    // replaying every rank from the last consistent checkpoint.
    LadderLeg leg{"rollback", {}};
    leg.opts.plan = ft::FaultPlan::parse(kill_spec, /*seed=*/1);
    leg.opts.checkpoint_every = 16;
    leg.opts.timeout_ms = 10000;
    legs.push_back(leg);
  }

  util::Table table({"rung", "verified", "wall p50", "wall p99", "overhead p50",
                     "recoveries", "replayed", "retransmits"});
  table.add_row({"fault-free", "yes", util::Table::fmt(clean_p50, 3),
                 util::Table::fmt(bucketed_quantiles(clean_walls).p99, 3), "--",
                 "0", "0", "0"});
  for (const LadderLeg& leg : legs) {
    std::vector<double> walls;
    bool all_ok = true;
    std::uint64_t rollbacks = 0, localized = 0, replayed = 0, retransmits = 0;
    for (int i = 0; i < reps; ++i) {
      par::ResilienceTelemetry telemetry;
      util::Timer wall;
      const auto r = run_once(ranks, cfg, leg.opts, &telemetry);
      walls.push_back(wall.elapsed());
      all_ok = all_ok && r.ok;
      rollbacks += telemetry.rollbacks;
      localized += telemetry.localized_recoveries;
      replayed = std::max<std::uint64_t>(replayed, telemetry.replayed_steps);
      retransmits += telemetry.retransmits;
    }
    const Quantiles q = bucketed_quantiles(walls);
    table.add_row({leg.name, all_ok ? "yes" : "NO", util::Table::fmt(q.p50, 3),
                   util::Table::fmt(q.p99, 3),
                   util::Table::fmt(q.p50 - clean_p50, 3),
                   util::Table::fmt_u64(rollbacks + localized),
                   util::Table::fmt_u64(replayed),
                   util::Table::fmt_u64(retransmits)});
    if (json_legs != nullptr) {
      util::JsonObject obj;
      obj.add("scenario", leg.name);
      obj.add("reps", static_cast<std::int64_t>(reps));
      obj.add("verified", all_ok);
      obj.add("wall_seconds_p50", q.p50);
      obj.add("wall_seconds_p99", q.p99);
      obj.add("overhead_seconds_p50", q.p50 - clean_p50);
      obj.add("clean_wall_seconds_p50", clean_p50);
      obj.add("rollbacks", rollbacks);
      obj.add("localized_recoveries", localized);
      obj.add("max_replayed_steps", replayed);
      obj.add("retransmits", retransmits);
      json_legs->push_back(obj);
    }
  }
  table.print(std::cout);
  std::cout << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args("bench_resilience", "checkpoint/recovery cost of the ft layer");
  args.add_int("ranks", 4, "threadcomm ranks");
  args.add_int("cells", 200, "mesh cells per dimension");
  args.add_int("particles", 200000, "particle count");
  args.add_int("steps", 200, "time steps");
  args.add_int("reps", 5, "repetitions per recovery-ladder rung (section c)");
  args.add_string("json", "", "write the ladder legs as picprk-bench-v1 JSON");
  if (!args.parse(argc, argv)) return 0;

  const auto cfg = make_config(args.get_int("cells"),
                               static_cast<std::uint64_t>(args.get_int("particles")),
                               static_cast<std::uint32_t>(args.get_int("steps")));
  const int ranks = static_cast<int>(args.get_int("ranks"));

  checkpoint_overhead(ranks, cfg);
  recovery_latency(ranks, cfg);

  std::vector<util::JsonObject> legs;
  recovery_ladder(ranks, cfg, static_cast<int>(args.get_int("reps")), &legs);
  const std::string json_path = args.get_string("json");
  if (!json_path.empty()) {
    util::JsonObject config;
    config.add("ranks", static_cast<std::int64_t>(ranks));
    config.add("cells", args.get_int("cells"));
    config.add("particles", args.get_int("particles"));
    config.add("steps", args.get_int("steps"));
    config.add("reps", args.get_int("reps"));
    if (!bench::write_bench_json(json_path, "bench_resilience", config, legs)) {
      std::cerr << "bench_resilience: cannot write " << json_path << '\n';
      return 1;
    }
    std::cout << "wrote " << json_path << '\n';
  }
  return 0;
}
