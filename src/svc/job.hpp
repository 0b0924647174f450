// One tenant of the job server (docs/SERVICE.md): a complete kernel
// instance — its own par::VpHost (the vpr runtime over par::PicVp
// subdomains that run_ampi also steps, with its own fault injector and
// checkpoint store), its own obs::Registry — wrapped behind an
// advance(n)/finalize lifecycle the server can drive in quanta. Nothing
// in here touches process-global state: two Jobs are as
// isolated as two picprk processes, which is what makes the per-tenant
// metrics documents disjoint and a fault drill in one tenant invisible
// to its neighbours.
//
// Threading contract: a Job is externally synchronized. The server runs
// at most one advance() per job per cycle (one pool task), and the
// cycle barrier orders successive tasks, so no Job member needs a lock.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/registry.hpp"
#include "obs/sinks.hpp"
#include "par/pic_vp.hpp"
#include "svc/spec.hpp"
#include "util/report.hpp"

namespace picprk::svc {

enum class JobState { kRunning, kDone, kFailed, kCancelled };

const char* to_string(JobState state);

/// Final record of one finished tenant, mirroring the fields of the
/// single-run RESULT line so harnesses parse both the same way.
struct JobResult {
  bool ok = false;
  std::uint64_t final_particles = 0;
  std::uint64_t id_checksum = 0;
  std::uint64_t expected_checksum = 0;
  std::uint32_t recoveries = 0;
  std::uint64_t migrations = 0;
};

class Job {
 public:
  /// Builds the kernel instance: VPs populated, instruments registered,
  /// fault/checkpoint machinery attached. `id` is the server-assigned
  /// tenant id (the Chrome-trace pid and the part id of cross-job
  /// placement decisions).
  Job(int id, JobSpec spec);

  Job(const Job&) = delete;
  Job& operator=(const Job&) = delete;

  int id() const { return id_; }
  const std::string& name() const { return spec_.name; }
  const JobSpec& spec() const { return spec_; }
  JobState state() const { return state_; }
  const std::string& failure() const { return failure_; }

  std::uint32_t steps_done() const { return host_->step(); }
  std::uint32_t remaining_steps() const {
    return state_ == JobState::kRunning ? spec_.run.steps - steps_done() : 0;
  }
  /// Cycles this job received a quantum in — the fair-share observable.
  std::uint32_t cycles() const { return cycles_; }

  /// EWMA of measured wall seconds per superstep (0 until first quantum)
  /// — the telemetry the cross-job scheduler places on.
  double cost_per_step() const { return cost_per_step_; }
  /// Pool seconds consumed so far.
  double seconds() const { return seconds_; }

  double weight() const { return spec_.weight; }
  int owner() const { return owner_; }
  void set_owner(int worker) { owner_ = worker; }

  /// Runs up to `n` supersteps (fewer when the job completes first)
  /// through the host, which checkpoints on the configured cadence and
  /// rolls back through the job's own store when its fault drill kills
  /// a VP. Transitions to kDone (with verification) or kFailed; never
  /// throws.
  void advance(std::uint32_t n);

  /// Marks a running job cancelled; its state is dropped undrained.
  void cancel();

  /// Valid once state() != kRunning.
  const JobResult& result() const { return result_; }

  obs::Registry& registry() { return registry_; }
  const obs::Registry& registry() const { return registry_; }
  const std::vector<obs::StepSample>& samples() const { return samples_; }

  /// The spec's knobs as the "config" object of this tenant's metrics
  /// document, so archived per-job docs are self-describing.
  util::JsonObject config_json() const;

 private:
  void sample(std::uint32_t step);
  void finalize();

  int id_;
  JobSpec spec_;
  JobState state_ = JobState::kRunning;
  std::string failure_;

  // Per-tenant instance state — no process-global anywhere.
  obs::Registry registry_;
  std::unique_ptr<par::VpHost> host_;
  obs::Histogram* step_hist_ = nullptr;  ///< svc/step_seconds (p99 source)

  std::uint32_t cycles_ = 0;
  double cost_per_step_ = 0.0;
  double seconds_ = 0.0;
  int owner_ = 0;
  std::vector<obs::StepSample> samples_;
  JobResult result_;
};

}  // namespace picprk::svc
