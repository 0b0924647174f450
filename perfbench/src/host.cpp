// Host and build facts recorded in every report: nproc, the last-level
// cache from sysfs, a single-thread STREAM-style triad bandwidth at ≥ 4×
// that cache, and the flags this build was compiled with.
#include "host.hpp"

#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <fstream>
#include <string>
#include <vector>

#include "arith.hpp"

namespace perfbench {

namespace {

std::string read_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

/// "300M", "32768K", "1024" -> bytes; 0 when unparsable.
std::uint64_t parse_size(const std::string& text) {
  std::size_t i = 0;
  std::uint64_t value = 0;
  while (i < text.size() && std::isdigit(static_cast<unsigned char>(text[i])) != 0) {
    value = value * 10 + static_cast<std::uint64_t>(text[i] - '0');
    ++i;
  }
  if (i == 0) return 0;
  const char unit = i < text.size() ? text[i] : 'B';
  if (unit == 'K') return value << 10;
  if (unit == 'M') return value << 20;
  if (unit == 'G') return value << 30;
  return value;
}

}  // namespace

std::uint64_t llc_bytes() {
  std::uint64_t best = 0;
  int best_level = -1;
  for (int index = 0; index < 16; ++index) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index);
    const std::string level = read_line(dir + "/level");
    if (level.empty()) break;
    const std::string type = read_line(dir + "/type");
    if (type == "Instruction") continue;
    const int lv = std::stoi(level);
    if (lv > best_level) {
      best_level = lv;
      best = parse_size(read_line(dir + "/size"));
    }
  }
  return best;
}

double triad_gbs(std::uint64_t working_set_bytes) {
  const std::size_t n = working_set_bytes / (3 * sizeof(double)) + 1;
  std::vector<double> a(n, 0.0);
  std::vector<double> b(n, 1.0);
  std::vector<double> c(n, 2.0);
  const double scalar = 3.0;
  std::vector<double> gbs;
  for (int pass = 0; pass < 5; ++pass) {
    const auto t0 = std::chrono::steady_clock::now();
    double* __restrict pa = a.data();
    const double* __restrict pb = b.data();
    const double* __restrict pc = c.data();
    for (std::size_t i = 0; i < n; ++i) pa[i] = pb[i] + scalar * pc[i];
    const double s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    gbs.push_back(static_cast<double>(3 * sizeof(double) * n) / s * 1e-9);
  }
  if (a[n / 2] != 1.0 + scalar * 2.0) return 0.0;  // keeps the loop observable
  return median(gbs);
}

std::uint64_t triad_working_set_bytes(std::uint64_t llc) {
  return 4 * (llc > 0 ? llc : (256ull << 20));
}

picprk::util::JsonObject host_facts(double triad_gbs) {
  const std::uint64_t llc = llc_bytes();
  picprk::util::JsonObject o;
  o.add("nproc", static_cast<std::int64_t>(sysconf(_SC_NPROCESSORS_ONLN)))
      .add("llc_bytes", llc)
      .add("triad_working_set_bytes", triad_working_set_bytes(llc))
      .add("triad_threads", std::int64_t{1})
      .add("triad_gbs", triad_gbs);
  return o;
}

picprk::util::JsonObject build_facts() {
  picprk::util::JsonObject o;
  o.add("compiler", std::string(PERFBENCH_COMPILER))
      .add("build_type", std::string(PERFBENCH_BUILD_TYPE))
      .add("picprk_native", std::string(PERFBENCH_NATIVE))
      .add("picprk_obs", std::string(PERFBENCH_OBS));
  return o;
}

}  // namespace perfbench
