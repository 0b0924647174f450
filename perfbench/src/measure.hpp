// The two measuring modes: dark end-to-end runs (e2e.cpp) and the traced
// run with per-layer probes (layers.cpp).
#pragma once

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace perfbench {

struct Options {
  double seconds = 10.0;  ///< measuring budget of one invocation
  std::string out_dir;    ///< where report and trace files go
  picprk::util::JsonObject host;  ///< host facts (host.cpp), echoed into reports
  double triad_gbs = 0.0;
  std::uint64_t llc_bytes = 0;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> failures;  ///< one message per failed item
  bool correct() const { return failed == 0 && attempted > 0; }
};

Result measure_e2e(const Workload& w, const Options& options);
Result measure_layers(const Workload& w, const Options& options);

/// `value`, or 0 when it is inf or nan (a failed run can leave a division
/// by zero, and JSON has neither).
inline double finite_or_zero(double value) { return std::isfinite(value) ? value : 0.0; }

/// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}},
/// every value with all its digits: the benchmark's result line.
std::string result_json(const Result& r);

/// The result as a report member, with the failure messages.
picprk::util::JsonObject result_object(const Result& r);

/// Writes `doc` to out_dir/name; says so on stderr when it cannot.
void write_report(const Options& options, const std::string& name,
                  const picprk::util::JsonObject& doc);

}  // namespace perfbench
