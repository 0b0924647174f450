// The runtime-load-balanced implementation, "ampi" in the paper (§IV-C):
// the same algorithm as the baseline, but over-decomposed into d·P
// virtual processors executed by the vpr runtime, which migrates VPs
// between workers at interval F using a Charm-style balancer. The
// runtime is oblivious of the problem structure — the locality-agnostic
// behaviour whose consequences the paper's Figures 6–7 dissect.
#pragma once

#include "par/run_config.hpp"

namespace picprk::par {

/// Runs the ampi/vpr driver on config.workers workers with
/// config.overdecomposition VPs per worker, balancing every
/// config.lb.every steps under the placement strategy named by
/// config.lb.strategy (empty = "greedy", the paper's choice). Steps one
/// par::VpHost to config.steps, so a VP kill rolls back in-process at
/// most config.resilience.max_recoveries times before ft::RankKilled
/// escapes. Standalone (spawns its own workers); not collective over a
/// Comm.
DriverResult run_ampi(const RunConfig& config);

}  // namespace picprk::par
