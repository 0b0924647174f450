// perfbench: the measuring program behind perfbench/run.py.
//
//   perfbench --triad-probe
//       measures the host's triad bandwidth and prints it in GB/s.
//   perfbench --workload W --seed N --seconds S --trace 0|1
//             --out-dir DIR --triad-gbs X
//       measures workload W; the last stdout line is the result JSON.
//       X is the --triad-probe figure, measured in a process of its own so
//       that the probe's arrays stay out of this process's peak_rss_mb.
//
// Exit code 0 when every run verified, 1 when any did not, 2 on usage.
#include <malloc.h>

#include <cstdlib>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>

#include "host.hpp"
#include "measure.hpp"

namespace perfbench {

std::string result_json(const Result& r) {
  std::ostringstream o;
  o.precision(17);
  o << "{\"correct\": " << (r.correct() ? "true" : "false")
    << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
    << ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    o << (i ? ", " : "") << '"' << m.name << "\": {\"value\": " << finite_or_zero(m.value)
      << ", \"unit\": \"" << m.unit << "\"}";
  }
  o << "}}";
  return o.str();
}

picprk::util::JsonObject result_object(const Result& r) {
  picprk::util::JsonObject metrics;
  for (const Metric& m : r.metrics) {
    metrics.add(m.name, picprk::util::JsonObject()
                            .add("value", finite_or_zero(m.value))
                            .add("unit", m.unit));
  }
  std::vector<picprk::util::JsonObject> failures;
  for (const std::string& f : r.failures) {
    failures.push_back(picprk::util::JsonObject().add("message", f));
  }
  picprk::util::JsonObject o;
  o.add("correct", r.correct())
      .add("attempted", r.attempted)
      .add("failed", r.failed)
      .add("failures", failures)
      .add("metrics", metrics);
  return o;
}

void write_report(const Options& options, const std::string& name,
                  const picprk::util::JsonObject& doc) {
  const std::string path = options.out_dir + "/" + name;
  if (!picprk::util::write_json_file(path, doc)) {
    std::cerr << "perfbench: cannot write " << path << '\n';
  }
}

namespace {

/// Fixes glibc's malloc policy, which otherwise follows the process's
/// own history: the mmap threshold rises with the largest block freed so
/// far, and each thread's arena keeps or trims memory depending on the
/// order its threads ran in. Left adaptive, identical runs settled at
/// one of two page-fault levels about 2x apart, and set-up time, which
/// allocates and first touches every particle store, followed them.
/// Pinned: one arena for all threads; blocks of 4 MiB and more (particle
/// stores, checkpoint snapshots) are mapped fresh and returned on free;
/// smaller freed memory is kept for reuse. Set-up and peak_rss_mb then
/// depend on the inputs, not on which thread happened to free first.
/// Must run before any thread starts.
void pin_allocator() {
  mallopt(M_ARENA_MAX, 1);
  mallopt(M_MMAP_THRESHOLD, 4 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
}

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --triad-probe\n"
               "       perfbench --workload W --seed N --seconds S --trace 0|1 "
               "--out-dir DIR --triad-gbs X\n";
  return 2;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  std::string seed_text;
  std::string trace = "0";
  std::string triad_text;
  Options options;
  pin_allocator();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--triad-probe") {
      std::cout.precision(17);
      std::cout << triad_gbs(triad_working_set_bytes(llc_bytes())) << '\n';
      return 0;
    }
    if (i + 1 >= argc) return usage("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      seed_text = value;
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      trace = value;
    } else if (arg == "--out-dir") {
      options.out_dir = value;
    } else if (arg == "--triad-gbs") {
      triad_text = value;
    } else {
      return usage("unknown argument " + arg);
    }
  }
  if (workload.empty() || seed_text.empty() || options.out_dir.empty() ||
      triad_text.empty()) {
    return usage("--workload, --seed, --out-dir and --triad-gbs are required");
  }
  if (trace != "0" && trace != "1") return usage("--trace takes 0 or 1");
  if (!(options.seconds > 0.0)) return usage("--seconds must be positive");
  options.triad_gbs = std::strtod(triad_text.c_str(), nullptr);
  options.llc_bytes = llc_bytes();
  options.host = host_facts(options.triad_gbs);

  try {
    const Workload w = make_workload(workload, std::stoull(seed_text));
    std::cout << "perfbench workload=" << w.name << " seed=" << w.seed
              << " fault_seed=" << w.fault_seed << " heldout_seed=" << kHeldOutSeed
              << " trace=" << trace << " seconds=" << options.seconds << '\n'
              << "host " << options.host.to_string() << '\n'
              << "build " << build_facts().to_string() << '\n';
    const Result r = trace == "1" ? measure_layers(w, options) : measure_e2e(w, options);
    for (const std::string& f : r.failures) std::cout << "FAILED " << f << '\n';
    for (const Metric& m : r.metrics) {
      std::cout << "metric " << m.name << ' ' << m.value << ' ' << m.unit << '\n';
    }
    std::cout << result_json(r) << std::endl;
    return r.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }
}
