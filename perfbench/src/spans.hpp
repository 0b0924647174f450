// Benchmark-owned spans: name, start, end, parent span and rank of every
// probe and engine run of the traced mode. They are kept in memory and
// written once, at exit, as a Chrome trace_event file (loads in
// Perfetto). The program under test is never instrumented from here.
#pragma once

#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  int id = 0;
  int parent = -1;  ///< id of the enclosing span, -1 at the top
  int rank = 0;     ///< rank / worker thread that ran it (0 = main thread)
};

/// A span's self time: its duration minus the part of its interval that
/// its direct children cover (overlapping children counted once,
/// children clipped to the parent). Index-aligned with `spans`.
std::vector<double> self_time_us(const std::vector<Span>& spans);

/// Σ self time per span name, in ms — the per-layer split of the trace.
std::map<std::string, double> self_ms_by_name(const std::vector<Span>& spans);

class SpanRecorder {
 public:
  SpanRecorder() : epoch_(std::chrono::steady_clock::now()) {}
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// RAII span. Without an explicit parent the span nests under the
  /// innermost open span of the calling thread; threads a probe spawns
  /// (ranks) pass the probe's span id instead.
  class Scope {
   public:
    Scope(SpanRecorder& recorder, std::string name, int rank = 0, int parent = kInherit);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int id() const { return id_; }

   private:
    SpanRecorder& recorder_;
    int id_;
  };
  static constexpr int kInherit = -2;

  std::vector<Span> spans() const;

  /// Chrome trace_event JSON; `metadata_json` (an object) goes under
  /// "otherData". Returns false when the file cannot be written.
  bool write_chrome(const std::string& path, const std::string& metadata_json) const;

 private:
  double now_us() const;
  int open(std::string name, int rank, int parent);
  void close(int id);

  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

}  // namespace perfbench
