#pragma once

#include <cstdint>
#include <string>

#include "util/report.hpp"

namespace perfbench {

/// Size of the highest-level data/unified cache of cpu0 from sysfs (0
/// when unreadable).
std::uint64_t llc_bytes();

/// Single-thread triad a[i] = b[i] + s·c[i] over three arrays totalling
/// `working_set_bytes`; median GB/s of five passes, counting 24 B per
/// element (STREAM convention, no write-allocate).
double triad_gbs(std::uint64_t working_set_bytes);

/// The triad probe's working set: 4× `llc` (4× 256 MiB when sysfs has no
/// cache size, so the probe still leaves a large server LLC).
std::uint64_t triad_working_set_bytes(std::uint64_t llc);

/// nproc, llc_bytes, triad_working_set_bytes, triad_threads and the
/// given triad_gbs (perfbench --triad-probe, see main.cpp).
picprk::util::JsonObject host_facts(double triad_gbs);

/// Compiler, CMAKE_BUILD_TYPE, PICPRK_NATIVE and PICPRK_OBS of this build.
picprk::util::JsonObject build_facts();

}  // namespace perfbench
