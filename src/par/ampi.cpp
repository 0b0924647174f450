#include "par/ampi.hpp"

#include <memory>

#include "ft/checkpoint.hpp"
#include "ft/fault.hpp"
#include "par/pic_vp.hpp"
#include "par/resilient.hpp"
#include "util/assert.hpp"
#include "util/timer.hpp"
#include "vpr/runtime.hpp"

namespace picprk::par {

DriverResult run_ampi(const RunConfig& config) {
  PICPRK_EXPECTS(config.workers >= 1);
  PICPRK_EXPECTS(config.overdecomposition >= 1);
  const int workers = config.workers;
  const int vps = workers * config.overdecomposition;

  auto shared = std::make_shared<const PicVpShared>(config, vps);
  PICPRK_EXPECTS(shared->vcart.px() <= config.init.grid.cells);
  PICPRK_EXPECTS(shared->vcart.py() <= config.init.grid.cells);

  vpr::RuntimeConfig rt_config;
  rt_config.workers = workers;
  rt_config.vps = vps;
  rt_config.lb_interval = config.lb.every;
  rt_config.balancer = config.lb.strategy.empty() ? "greedy" : config.lb.strategy;
  rt_config.use_measured_load = config.lb.measured;
  rt_config.obs = config.obs;  // runtime registers its own instruments

  vpr::Runtime runtime(rt_config, [shared](int vp) {
    return std::make_unique<PicVp>(vp, shared);
  });
  runtime.for_each_vp([](vpr::VirtualProcessor& vp) {
    static_cast<PicVp&>(vp).populate();
  });

  DriverResult result;
  double checkpoint_seconds = 0.0;
  // The driver thread gets its own trace lane (pid 0) for checkpoint
  // rounds; the runtime's VP lanes live under pid 1.
  const obs::StepInstruments inst(config.obs, "ampi", 0, "driver", 0,
                                  static_cast<std::size_t>(config.steps) * 2 + 8);
  const bool checkpointing = config.ft.checkpointing();
  // Localized recovery (docs/RESILIENCE.md): a killed VP marks its
  // *worker* dead — the vpr analogue of a rank failure. Every VP is
  // restored in-process from the store and the dead worker is retired;
  // its VPs are re-placed through the balancer's degraded path and the
  // run continues on the shrunken worker set. Requires per-step
  // checkpoints so survivors replay at most one superstep.
  const bool local_mode =
      config.resilience.recovery == RecoveryMode::kLocal && checkpointing;
  const std::uint32_t cadence =
      local_mode ? 1 : (checkpointing ? config.ft.checkpoint_every : 0);
  std::uint64_t checkpoint_rounds = 0, checkpoint_bytes = 0;
  std::uint32_t recoveries = 0, localized = 0, replayed = 0;
  /// Rollback attempts before an injected VP death is rethrown.
  constexpr std::uint32_t kMaxVpRecoveries = 3;

  util::Timer wall;
  for (std::uint32_t step = 0; step < config.steps;) {
    if (checkpointing && step % cadence == 0) {
      obs::Phase phase(obs::kPhaseCheckpoint, &checkpoint_seconds, inst.lane,
                       inst.checkpoint);
      checkpoint_bytes += checkpoint_vps(runtime, *config.ft.store, step);
      ++checkpoint_rounds;
    }
    try {
      runtime.run(1);
    } catch (const ft::RankKilled& e) {
      if (!checkpointing) throw;
      // Only buddy copies survive the dead VP's memory. In local mode the
      // killed VP's host worker dies with everything it ran, so every
      // co-located VP loses its primary too.
      const int dead_worker = runtime.worker_of(e.rank());
      for (int v = 0; v < vps; ++v) {
        if (local_mode ? runtime.worker_of(v) == dead_worker : v == e.rank()) {
          config.ft.store->drop_primary(v);
        }
      }
      std::uint32_t& attempts = local_mode ? localized : recoveries;
      const auto consistent = config.ft.store->consistent_step(vps);
      if (!consistent || attempts >= kMaxVpRecoveries) throw;
      restore_vps(runtime, *config.ft.store, *consistent);
      if (local_mode) {
        // Shrink the live set; the dead worker's VPs evacuate through
        // the balancer's degraded plan before the next superstep.
        runtime.retire_worker(dead_worker);
        replayed += step - *consistent;
      }
      step = *consistent;
      ++attempts;
      continue;
    }
    if (config.sample_every > 0 && step % config.sample_every == 0) {
      std::vector<double> worker_load(static_cast<std::size_t>(workers), 0.0);
      double total = 0.0;
      for (int v = 0; v < vps; ++v) {
        const double load = static_cast<PicVp&>(runtime.vp(v)).particles().size();
        worker_load[static_cast<std::size_t>(runtime.worker_of(v))] += load;
        total += load;
      }
      // λ over live workers: a retired worker's permanent zero must not
      // deflate the mean (its max contribution is already zero).
      const double mean = total / static_cast<double>(runtime.live_workers());
      double max = 0.0;
      for (double w : worker_load) max = std::max(max, w);
      const double lambda = mean > 0 ? max / mean : 1.0;
      result.imbalance_series.push_back(lambda);
      if (config.obs.active()) {
        // Single-process driver: particle counts double as the compute
        // load, so both lambdas coincide here.
        obs::StepSample sample;
        sample.step = static_cast<int>(step);
        sample.lambda = lambda;
        sample.max_load = max;
        sample.mean_load = mean;
        sample.lambda_compute = lambda;
        result.step_samples.push_back(sample);
      }
    }
    ++step;
  }
  const double seconds = wall.elapsed();

  // Verification + bookkeeping across all VPs.
  VpVerifyTally tally;
  std::vector<std::uint64_t> per_worker(static_cast<std::size_t>(workers), 0);
  runtime.for_each_vp([&](vpr::VirtualProcessor& vp_base) {
    auto& vp = static_cast<PicVp&>(vp_base);
    accumulate_vp_verification(vp, config, tally);
    per_worker[static_cast<std::size_t>(runtime.worker_of(vp.id()))] +=
        vp.particles().size();
  });
  const pic::VerifyResult& verify = tally.verify;
  const std::uint64_t sent = tally.sent_particles;

  const std::uint64_t expected =
      vpr_expected_checksum(shared->init, config.events, tally.removed_id_sum);

  const vpr::RuntimeStats& stats = runtime.stats();
  result.verification = verify;
  result.expected_id_checksum = expected;
  result.ok = verify.ok(expected);
  result.final_particles = verify.checked;
  result.max_particles_per_rank = 0;
  for (auto w : per_worker)
    result.max_particles_per_rank = std::max(result.max_particles_per_rank, w);
  result.ideal_particles_per_rank =
      static_cast<double>(verify.checked) /
      static_cast<double>(runtime.live_workers());
  result.seconds = seconds;
  result.phases = PhaseBreakdown{stats.step_seconds - stats.lb_seconds, 0.0,
                                 stats.lb_seconds, checkpoint_seconds};
  result.particles_exchanged = sent;
  result.exchange_bytes = stats.message_bytes;
  result.lb_actions = stats.migrations;
  result.lb_bytes = stats.migrated_bytes;
  result.checkpoints = checkpoint_rounds;
  result.checkpoint_bytes = checkpoint_bytes;
  result.recoveries = recoveries + localized;
  result.localized_recoveries = localized;
  result.replayed_steps = replayed;
  return result;
}

}  // namespace picprk::par
