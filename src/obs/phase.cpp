#include "obs/phase.hpp"

#include <cstdio>
#include <fstream>

namespace picprk::obs {

#if defined(PICPRK_OBS_ENABLED)

namespace {

/// Minimal JSON string escaping for lane labels (our own short names,
/// but keep the document well-formed whatever the caller passes).
void append_escaped(std::string& out, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

void append_double(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  out += buf;
}

}  // namespace

TraceLane& Trace::lane(int pid, const std::string& process_name, int tid,
                       const std::string& thread_name, std::size_t reserve_events) {
  util::LockGuard lock(mutex_);
  for (TraceLane& l : lanes_) {
    if (l.pid_ == pid && l.tid_ == tid) return l;
  }
  lanes_.emplace_back();
  TraceLane& l = lanes_.back();
  l.pid_ = pid;
  l.tid_ = tid;
  l.process_name_ = process_name;
  l.thread_name_ = thread_name;
  l.events_.reserve(reserve_events);
  l.epoch_ = epoch_;
  return l;
}

std::string Trace::to_json() const {
  util::LockGuard lock(mutex_);
  std::string out;
  // ~96 bytes per span record; headroom for metadata.
  std::size_t n = 0;
  for (const TraceLane& l : lanes_) n += l.events_.size();
  out.reserve(n * 96 + lanes_.size() * 256 + 64);

  out += "{\"traceEvents\":[";
  bool first = true;
  for (const TraceLane& l : lanes_) {
    // Metadata records give Perfetto/chrome://tracing its row labels.
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":";
    out += std::to_string(l.pid_);
    out += ",\"tid\":0,\"args\":{\"name\":\"";
    append_escaped(out, l.process_name_);
    out += "\"}},{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":";
    out += std::to_string(l.pid_);
    out += ",\"tid\":";
    out += std::to_string(l.tid_);
    out += ",\"args\":{\"name\":\"";
    append_escaped(out, l.thread_name_);
    out += "\"}}";
    for (const TraceEvent& e : l.events_) {
      out += ",{\"name\":\"";
      out += e.name;  // static kPhase* strings, no escaping needed
      out += "\",\"ph\":\"X\",\"ts\":";
      append_double(out, e.begin_us);
      out += ",\"dur\":";
      append_double(out, e.dur_us);
      out += ",\"pid\":";
      out += std::to_string(l.pid_);
      out += ",\"tid\":";
      out += std::to_string(l.tid_);
      out += '}';
    }
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

bool Trace::write_json(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << to_json() << '\n';
  return static_cast<bool>(f);
}

// picprk-lint: suppress(reach: test observer read by TraceTest.LaneIsIdempotentPerPidTid)
std::size_t Trace::lane_count() const {
  util::LockGuard lock(mutex_);
  return lanes_.size();
}

// picprk-lint: suppress(reach: test observer read by PhaseTest.RecordsTraceSpanWhenEnabled)
std::uint64_t Trace::event_count() const {
  util::LockGuard lock(mutex_);
  std::uint64_t n = 0;
  for (const TraceLane& l : lanes_) n += l.events_.size();
  return n;
}

/* picprk-lint: suppress(reach: test observer read by
   TraceTest.RecordDropsBeyondReservedCapacityInsteadOfGrowing) */
std::uint64_t Trace::dropped_count() const {
  util::LockGuard lock(mutex_);
  std::uint64_t n = 0;
  for (const TraceLane& l : lanes_) n += l.dropped_;
  return n;
}

StepInstruments::StepInstruments(const Hooks& hooks, const std::string& process, int pid,
                                 const std::string& thread_label, int tid,
                                 std::size_t reserve_events) {
  if (hooks.trace != nullptr) {
    lane = &hooks.trace->lane(pid, process, tid, thread_label, reserve_events);
  }
  if (hooks.registry != nullptr) {
    Registry& reg = *hooks.registry;
    const std::string prefix = thread_label + "/";
    // 0–50 ms equal-width buckets cover the per-phase durations of every
    // test- and bench-sized run; longer phases clamp into the last bucket
    // but still count toward count/sum (mean stays exact).
    compute = &reg.register_histogram(prefix + "phase_compute_seconds", 0.0, 0.05, 100);
    exchange = &reg.register_histogram(prefix + "phase_exchange_seconds", 0.0, 0.05, 100);
    lb = &reg.register_histogram(prefix + "phase_lb_seconds", 0.0, 0.05, 100);
    checkpoint =
        &reg.register_histogram(prefix + "phase_checkpoint_seconds", 0.0, 0.05, 100);
    steps = &reg.register_counter(prefix + "steps");
    exchange_sent = &reg.register_counter(prefix + "exchange_particles_sent");
    exchange_received = &reg.register_counter(prefix + "exchange_particles_received");
    exchange_bytes = &reg.register_counter(prefix + "exchange_bytes");
    lb_decisions = &reg.register_counter(prefix + "lb_decisions");
    lb_rebalances = &reg.register_counter(prefix + "lb_rebalances");
    lb_skipped = &reg.register_counter(prefix + "lb_skipped");
  }
}

#else  // !PICPRK_OBS_ENABLED

std::string Trace::to_json() const { return "{\"traceEvents\":[]}"; }

bool Trace::write_json(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << to_json() << '\n';
  return static_cast<bool>(f);
}

StepInstruments::StepInstruments(const Hooks&, const std::string&, int,
                                 const std::string&, int, std::size_t) {}

#endif  // PICPRK_OBS_ENABLED

}  // namespace picprk::obs
