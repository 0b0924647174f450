#include "svc/job.hpp"

#include <algorithm>
#include <span>

#include "pic/init.hpp"
#include "util/timer.hpp"

namespace picprk::svc {

const char* to_string(JobState state) {
  switch (state) {
    case JobState::kRunning:
      return "running";
    case JobState::kDone:
      return "done";
    case JobState::kFailed:
      return "failed";
    case JobState::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

Job::Job(int id, JobSpec spec) : id_(id), spec_(std::move(spec)) {
  spec_.run.workers = 1;  // the server's pool supplies the parallelism
  // The drill knobs become the run's resilience plan; the host wires it.
  ft::FaultPlan plan;
  if (spec_.kill_vp >= 0) {
    plan.seed = 1;
    ft::FaultSpec kill;
    kill.kind = ft::FaultKind::Kill;
    kill.rank = spec_.kill_vp;
    kill.step = spec_.kill_step;
    plan.specs.push_back(kill);
  }
  spec_.run.resilience.plan = std::move(plan);
  spec_.run.resilience.checkpoint_every = spec_.checkpoint_every;
  // Registry: this job's own. Trace: deliberately none — every vpr
  // runtime names its VP lanes under pid 1, so per-job runtimes sharing
  // one Trace would collide; the server instead keeps one lane per job
  // (pid = job id) and records the job's quanta there.
  spec_.run.obs.registry = &registry_;
  spec_.run.obs.trace = nullptr;

  host_ = std::make_unique<par::VpHost>(spec_.run);
  step_hist_ = &registry_.register_histogram("svc/step_seconds", 0.0, 0.02, 200);
}

void Job::sample(std::uint32_t step) {
  const int vps = host_->runtime().vps();
  double total = 0.0, max = 0.0;
  for (int v = 0; v < vps; ++v) {
    const double load = host_->vp(v).load();
    total += load;
    max = std::max(max, load);
  }
  const double mean = total / static_cast<double>(vps);
  obs::StepSample s;
  s.step = static_cast<int>(step);
  s.lambda = mean > 0 ? max / mean : 1.0;
  s.max_load = max;
  s.mean_load = mean;
  s.lambda_compute = s.lambda;  // single-tenant view: counts double as load
  samples_.push_back(s);
}

void Job::advance(std::uint32_t n) {
  if (state_ != JobState::kRunning || n == 0) return;
  ++cycles_;
  util::Timer quantum_timer;
  std::uint32_t executed = 0;
  try {
    while (executed < n && !host_->done()) {
      // svc/step_seconds times the superstep alone, without a checkpoint
      // the host takes first.
      const double checkpoint_before = host_->ft().checkpoint_seconds;
      util::Timer step_timer;
      // A drill that kills one of *this job's* VPs rolls the job back
      // through its own store; neighbours never see any of it.
      if (!host_->advance()) continue;
      ++executed;
      step_hist_->observe(step_timer.elapsed() -
                          (host_->ft().checkpoint_seconds - checkpoint_before));
      if (spec_.run.sample_every > 0 && steps_done() % spec_.run.sample_every == 0) {
        sample(steps_done());
      }
    }
  } catch (const std::exception& e) {
    state_ = JobState::kFailed;
    failure_ = e.what();
    result_.recoveries = host_->ft().recoveries();
    seconds_ += quantum_timer.elapsed();
    return;
  }
  const double elapsed = quantum_timer.elapsed();
  seconds_ += elapsed;
  if (executed > 0) {
    const double per_step = elapsed / static_cast<double>(executed);
    // EWMA with a half-life of one cycle: reactive enough to follow a
    // job through its skew drift, stable enough for placement.
    cost_per_step_ =
        cost_per_step_ <= 0.0 ? per_step : 0.5 * cost_per_step_ + 0.5 * per_step;
  }
  if (host_->done()) finalize();
}

void Job::cancel() {
  if (state_ != JobState::kRunning) return;
  state_ = JobState::kCancelled;
  result_.recoveries = host_->ft().recoveries();
}

void Job::finalize() {
  const par::VpHost::Tally tally = host_->tally();
  const pic::VerifyResult& verify = tally.vps.verify;
  result_.ok = verify.ok(tally.expected_checksum);
  result_.final_particles = verify.checked;
  result_.id_checksum = verify.id_checksum;
  result_.expected_checksum = tally.expected_checksum;
  result_.recoveries = host_->ft().recoveries();
  result_.migrations = host_->runtime().stats().migrations;

  // Headline scalars into the job registry so the per-tenant metrics
  // document is self-contained (same idea as picprk's absorb_result).
  registry_.register_gauge("job/seconds").set(seconds_);
  registry_.register_gauge("job/steps").set(static_cast<double>(steps_done()));
  registry_.register_gauge("job/final_particles")
      .set(static_cast<double>(result_.final_particles));
  registry_.register_counter("job/recoveries").add(result_.recoveries);
  registry_.register_counter("job/migrations").add(result_.migrations);
  state_ = JobState::kDone;
}

util::JsonObject Job::config_json() const {
  util::JsonObject config;
  config.add("job", spec_.name);
  config.add("cells", spec_.run.init.grid.cells);
  config.add("particles", spec_.run.init.total_particles);
  config.add("steps", static_cast<std::int64_t>(spec_.run.steps));
  config.add("dist", pic::distribution_name(spec_.run.init.distribution));
  config.add("d", static_cast<std::int64_t>(spec_.run.overdecomposition));
  config.add("balancer",
             spec_.run.lb.strategy.empty() ? "greedy" : spec_.run.lb.strategy);
  config.add("lb_every", static_cast<std::int64_t>(spec_.run.lb.every));
  config.add("weight", spec_.weight);
  config.add("seed", spec_.run.init.seed);
  config.add("checkpoint_every", static_cast<std::int64_t>(spec_.checkpoint_every));
  return config;
}

}  // namespace picprk::svc
