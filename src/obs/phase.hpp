// The tracing half of the obs subsystem (docs/OBSERVABILITY.md): scoped
// phase timers that feed (a) the drivers' per-phase second totals, (b)
// pre-registered duration histograms, and (c) a Chrome trace_event
// timeline (--trace-out; load the file in chrome://tracing or
// https://ui.perfetto.dev) with one lane per rank / VP / worker.
//
// Compile-out: when the CMake option PICPRK_OBS is OFF the macro
// PICPRK_OBS_ENABLED is absent and Trace/TraceLane collapse to empty
// stubs, Phase keeps only the always-needed accumulation into a double
// (the drivers' PhaseBreakdown totals predate this subsystem), and
// StepInstruments registers nothing — the hot-path telemetry vanishes
// entirely while --trace-out/--metrics-out still emit valid (empty)
// documents.
//
// Zero allocation on the hot path: lanes pre-reserve their event storage
// at creation; record() drops (and counts) events beyond capacity
// instead of growing. A lane is thread-confined to the thread that works
// its pid/tid row, so record() takes no lock.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "obs/registry.hpp"
#include "util/thread_annotations.hpp"
#include "util/timer.hpp"

namespace picprk::obs {

/// True when the build carries the telemetry layer (PICPRK_OBS=ON).
inline constexpr bool kEnabled =
#if defined(PICPRK_OBS_ENABLED)
    true;
#else
    false;
#endif

// Canonical step-phase names. Static storage: a TraceEvent stores the
// pointer, never a copy.
inline constexpr const char* kPhaseCompute = "compute";        ///< force + move
inline constexpr const char* kPhaseExchange = "exchange";      ///< particle routing
inline constexpr const char* kPhaseLb = "lb";                  ///< balance + migrate
inline constexpr const char* kPhaseCheckpoint = "checkpoint";  ///< snapshot round
inline constexpr const char* kPhaseStep = "step";              ///< vpr VP superstep
inline constexpr const char* kPhaseDeliver = "deliver";        ///< vpr message delivery
inline constexpr const char* kPhaseWait = "wait";  ///< async drain / termination

#if defined(PICPRK_OBS_ENABLED)

/// One completed span on a lane (Chrome trace_event "ph":"X").
struct TraceEvent {
  const char* name = "";  ///< static-storage string (a kPhase* constant)
  double begin_us = 0.0;  ///< relative to the owning Trace's epoch
  double dur_us = 0.0;
};

class Trace;

/// One timeline row: a (pid, tid) pair in the Chrome trace model.
/// Created through Trace::lane() at setup; afterwards thread-confined to
/// the thread driving that row (vpr VP lanes migrate between workers,
/// but only at LB barriers, never mid-write).
class TraceLane {
 public:
  /// Microseconds since the owning trace's epoch; begin timestamp source
  /// for Phase.
  double now_us() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  /// Records a completed span. Never allocates: beyond the reserved
  /// capacity events are dropped and tallied in dropped().
  void record(const char* name, double begin_us, double dur_us) {
    if (events_.size() < events_.capacity()) {
      events_.push_back(TraceEvent{name, begin_us, dur_us});
    } else {
      ++dropped_;
    }
  }

  int pid() const { return pid_; }
  int tid() const { return tid_; }
  const std::string& process_name() const { return process_name_; }
  const std::string& thread_name() const { return thread_name_; }
  const std::vector<TraceEvent>& events() const { return events_; }
  std::uint64_t dropped() const { return dropped_; }

 private:
  friend class Trace;

  int pid_ = 0;
  int tid_ = 0;
  std::string process_name_;
  std::string thread_name_;
  std::vector<TraceEvent> events_;
  std::uint64_t dropped_ = 0;
  std::chrono::steady_clock::time_point epoch_;
};

/// A whole trace: lanes plus the common epoch. lane() is mutex-guarded
/// (setup path); serialisation walks the lanes and must only run after
/// the instrumented threads have finished.
class Trace {
 public:
  Trace() : epoch_(std::chrono::steady_clock::now()) {}

  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  /// Returns the lane for (pid, tid), creating it with room for
  /// `reserve_events` spans on first use. Idempotent per (pid, tid) —
  /// a resilient rerun reuses its rank's lane.
  TraceLane& lane(int pid, const std::string& process_name, int tid,
                  const std::string& thread_name, std::size_t reserve_events = 4096);

  /// Chrome trace_event JSON document ({"traceEvents":[...]}) with
  /// process_name/thread_name metadata records for the lane labels.
  std::string to_json() const;

  /// Writes to_json() to `path`; returns success.
  bool write_json(const std::string& path) const;

  std::size_t lane_count() const;
  std::uint64_t event_count() const;
  std::uint64_t dropped_count() const;

 private:
  std::chrono::steady_clock::time_point epoch_;
  mutable util::Mutex mutex_;
  /// Deque: lanes must keep stable addresses while new lanes appear.
  std::deque<TraceLane> lanes_ PICPRK_GUARDED_BY(mutex_);
};

#else  // !PICPRK_OBS_ENABLED — telemetry compiled out

struct TraceEvent {
  const char* name = "";
  double begin_us = 0.0;
  double dur_us = 0.0;
};

/// No-op stand-in; record() compiles to nothing.
class TraceLane {
 public:
  double now_us() const { return 0.0; }
  void record(const char*, double, double) {}
  std::uint64_t dropped() const { return 0; }
};

/// Stub trace: lane() hands out a shared dummy, to_json()/write_json()
/// still produce a valid empty document so --trace-out keeps its
/// contract in PICPRK_OBS=OFF builds.
class Trace {
 public:
  Trace() = default;

  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  TraceLane& lane(int, const std::string&, int, const std::string&,
                  std::size_t = 4096) {
    return lane_;
  }

  std::string to_json() const;
  bool write_json(const std::string& path) const;

  // picprk-lint: suppress(reach: read by TraceTest.LaneIsIdempotentPerPidTid)
  std::size_t lane_count() const { return 0; }
  // picprk-lint: suppress(reach: read by PhaseTest.RecordsTraceSpanWhenEnabled)
  std::uint64_t event_count() const { return 0; }
  /* picprk-lint: suppress(reach: test observer read by
     TraceTest.RecordDropsBeyondReservedCapacityInsteadOfGrowing) */
  std::uint64_t dropped_count() const { return 0; }

 private:
  TraceLane lane_;
};

#endif  // PICPRK_OBS_ENABLED

/// RAII scoped phase timer. Always accumulates elapsed seconds into
/// `*accum` (when given) — that is functional driver state, not
/// telemetry. When the build carries telemetry, it additionally observes
/// the duration into `hist` and records a span on `lane` (both optional;
/// in OFF builds those are stubs/ignored).
class Phase {
 public:
  explicit Phase(const char* name, double* accum = nullptr, TraceLane* lane = nullptr,
                 Histogram* hist = nullptr)
      : name_(name), accum_(accum), lane_(lane), hist_(hist) {
#if defined(PICPRK_OBS_ENABLED)
    if (lane_ != nullptr) begin_us_ = lane_->now_us();
#endif
  }

  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;

  ~Phase() { finish(); }

  /// Ends the phase early (idempotent); the destructor is then a no-op.
  void finish() {
    if (finished_) return;
    finished_ = true;
    const double seconds = timer_.elapsed();
    if (accum_ != nullptr) *accum_ += seconds;
#if defined(PICPRK_OBS_ENABLED)
    if (hist_ != nullptr) hist_->observe(seconds);
    if (lane_ != nullptr) lane_->record(name_, begin_us_, seconds * 1e6);
#endif
  }

 private:
  const char* name_;
  double* accum_;
  TraceLane* lane_;
  Histogram* hist_;
  double begin_us_ = 0.0;
  bool finished_ = false;
  util::Timer timer_;
};

/// What a caller hands a driver to switch telemetry on: both pointers
/// null (the default) means "run dark", exactly the legacy behaviour.
struct Hooks {
  Registry* registry = nullptr;
  Trace* trace = nullptr;

  bool active() const { return kEnabled && (registry != nullptr || trace != nullptr); }
};

/// Per-driver-thread bundle of pre-registered instruments: the canonical
/// phase histograms, the step/exchange counters and this thread's trace
/// lane. Construction does all the registration (mutexes, strings,
/// allocation); the step loop only dereferences the handles. In
/// PICPRK_OBS=OFF builds construction is a no-op and every handle stays
/// null.
struct StepInstruments {
  TraceLane* lane = nullptr;
  Histogram* compute = nullptr;
  Histogram* exchange = nullptr;
  Histogram* lb = nullptr;
  Histogram* checkpoint = nullptr;
  Counter* steps = nullptr;
  Counter* exchange_sent = nullptr;
  Counter* exchange_received = nullptr;
  Counter* exchange_bytes = nullptr;
  /// LB strategy-layer decision tallies: every invocation bumps
  /// lb_decisions and exactly one of lb_rebalances (the plan changed)
  /// or lb_skipped (the strategy declined — e.g. `adaptive`'s cost
  /// model). rebalances + skipped == decisions by construction.
  Counter* lb_decisions = nullptr;
  Counter* lb_rebalances = nullptr;
  Counter* lb_skipped = nullptr;

  StepInstruments() = default;

  /// `process`/`pid` name the trace process row (e.g. "baseline"/0);
  /// `thread_label`/`tid` name this thread's lane ("rank 2"). Reserve
  /// enough events for the run: drivers pass ~4 spans per step.
  StepInstruments(const Hooks& hooks, const std::string& process, int pid,
                  const std::string& thread_label, int tid, std::size_t reserve_events);
};

}  // namespace picprk::obs
