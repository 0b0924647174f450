#include "par/ampi.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "par/pic_vp.hpp"
#include "util/timer.hpp"
#include "vpr/runtime.hpp"

namespace picprk::par {

DriverResult run_ampi(const RunConfig& config) {
  VpHost host(config);
  vpr::Runtime& runtime = host.runtime();
  // Particles per worker: the λ samples and the busiest worker's count.
  const auto worker_particles = [&] {
    std::vector<std::uint64_t> load(static_cast<std::size_t>(config.workers), 0);
    for (int v = 0; v < runtime.vps(); ++v) {
      load[static_cast<std::size_t>(runtime.worker_of(v))] += host.vp(v).particles().size();
    }
    return load;
  };

  DriverResult result;
  // The driver thread gets its own trace lane (pid 0) for checkpoint
  // rounds; the runtime's VP lanes live under pid 1.
  const obs::StepInstruments inst(config.obs, "ampi", 0, "driver", 0,
                                  static_cast<std::size_t>(config.steps) * 2 + 8);

  util::Timer wall;
  while (!host.done()) {
    if (!host.advance(&inst)) continue;  // rolled back: replay from host.step()
    const std::uint32_t step = host.step() - 1;
    if (config.sample_every > 0 && step % config.sample_every == 0) {
      const std::vector<std::uint64_t> load = worker_particles();
      // λ over live workers: a retired worker's permanent zero must not
      // deflate the mean (its max contribution is already zero).
      const double mean =
          static_cast<double>(std::accumulate(load.begin(), load.end(), std::uint64_t{0})) /
          static_cast<double>(runtime.live_workers());
      const double max = static_cast<double>(*std::max_element(load.begin(), load.end()));
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
  }
  const double seconds = wall.elapsed();

  const VpHost::Tally tally = host.tally();
  const pic::VerifyResult& verify = tally.vps.verify;
  const std::vector<std::uint64_t> final_load = worker_particles();
  const vpr::RuntimeStats& stats = runtime.stats();
  result.verification = verify;
  result.expected_id_checksum = tally.expected_checksum;
  result.ok = verify.ok(tally.expected_checksum);
  result.final_particles = verify.checked;
  result.max_particles_per_rank = *std::max_element(final_load.begin(), final_load.end());
  result.ideal_particles_per_rank =
      static_cast<double>(verify.checked) /
      static_cast<double>(runtime.live_workers());
  result.seconds = seconds;
  result.phases = PhaseBreakdown{stats.step_seconds - stats.lb_seconds, 0.0,
                                 stats.lb_seconds, host.ft().checkpoint_seconds};
  result.particles_exchanged = tally.vps.sent_particles;
  result.exchange_bytes = stats.message_bytes;
  result.lb_actions = stats.migrations;
  result.lb_bytes = stats.migrated_bytes;
  result.checkpoints = host.ft().checkpoints;
  result.checkpoint_bytes = host.ft().checkpoint_bytes;
  result.recoveries = host.ft().recoveries();
  result.localized_recoveries = host.ft().localized;
  result.replayed_steps = host.ft().replayed;
  return result;
}

}  // namespace picprk::par
