// The multi-tenant job server (docs/SERVICE.md): many kernels, one
// shared runtime. N admitted jobs — independent distribution, size,
// strategy, seed — multiplex onto a single ws::WorkStealingPool. Each
// drain cycle the Scheduler grants every live tenant a weighted-fair
// quantum of supersteps and places the quanta on pool workers through
// an lb::Strategy (jobs as super-VPs, measured step cost as load); the
// pool executes the placement via run_placed(), with stealing smoothing
// whatever the plan mispredicted.
//
// Observability is per-tenant: every job owns its registry and emits
// its own picprk-bench-v1 metrics document; the server owns one
// Chrome trace with a lane per job (pid = job id, so tenants appear as
// separate processes in the viewer) plus an aggregate summary table on
// drain.
//
// The control path (submit/cancel/drain/run_commands) is single-client:
// one thread drives the server. Inside a cycle the pool's workers each
// advance disjoint jobs; the cycle barrier orders everything else.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/phase.hpp"
#include "obs/registry.hpp"
#include "svc/job_table.hpp"
#include "svc/scheduler.hpp"
#include "ws/pool.hpp"

namespace picprk::svc {

struct ServerConfig {
  /// Shared-pool worker threads — the server's total compute.
  int workers = 4;
  /// Cross-job placement strategy (lb registry spec).
  std::string scheduler = "greedy";
  /// Supersteps granted per cycle at weight 1.
  std::uint32_t quantum = 8;
  /// Admission bound: live jobs beyond this are rejected loudly.
  std::size_t queue_capacity = 16;
  /// Directory for per-job metrics documents, "job-<name>.json" plus a
  /// "server.json" aggregate (empty = no metrics files).
  std::string metrics_dir;
  /// Server Chrome trace, one lane per job (empty = no trace file).
  std::string trace_path;
  /// Let idle pool workers steal beyond the planned placement.
  bool allow_steal = true;
  /// Feed measured per-job step cost into placement. Off = uniform cost
  /// assumption, which makes whole-server placement logs reproducible
  /// run to run (the replay tests pin this).
  bool measured_cost = true;
};

class Server {
 public:
  explicit Server(ServerConfig config);

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Admits a job. Throws AdmissionError beyond capacity (backpressure)
  /// and std::invalid_argument on duplicate live names.
  Job& submit(JobSpec spec);

  /// Cancels a running job; false when no such job. The cancellation is
  /// reported (RESULT line) on the next drain.
  bool cancel(const std::string& name);

  /// Runs scheduler cycles on the shared pool until no job is running;
  /// prints one human line + one RESULT line per finished job and the
  /// aggregate summary table, then flushes metrics/trace files.
  void drain(std::ostream& out);

  /// Executes the line-oriented command stream (submit/cancel/drain;
  /// '#' comments). EOF implies a final drain. Returns the process exit
  /// code: 0 when every non-cancelled job verified, 1 otherwise, 2 on a
  /// malformed command (reported on stderr, stream abandoned).
  int run_commands(std::istream& in, std::ostream& out);

  /// Canonical placement-plan log, one entry per cycle — the replay
  /// observable: two servers fed identical telemetry log identically.
  /* picprk-lint: suppress(reach: test observer read by
     ServerTest.TwoServersReplayPlacementPlansBitForBit) */
  const std::vector<std::string>& placement_log() const { return placement_log_; }

  JobTable& table() { return table_; }
  const obs::Registry& registry() const { return registry_; }
  std::uint32_t cycles() const { return cycle_; }

 private:
  void run_cycle(const std::vector<Job*>& jobs);
  void report_finished(std::ostream& out);
  void finish_job(Job& job, std::ostream& out);
  obs::TraceLane* lane_of(const Job& job);

  ServerConfig config_;
  obs::Registry registry_;  ///< server-level aggregates (svc/ namespace)
  obs::Trace trace_;        ///< one lane per tenant, pid = job id
  ws::WorkStealingPool pool_;
  JobTable table_;
  Scheduler scheduler_;

  std::vector<std::string> placement_log_;
  std::vector<int> reported_;  ///< job ids already reported
  std::uint32_t cycle_ = 0;
  bool all_ok_ = true;
  obs::Counter* cycles_counter_ = nullptr;
  obs::Counter* steps_counter_ = nullptr;
  obs::Counter* steals_counter_ = nullptr;
  obs::Counter* rejected_counter_ = nullptr;
};

}  // namespace picprk::svc
