// Queue-driven async execution engine (ROADMAP item 1, diy
// `master.hpp` style). The sync drivers are step-synchronous — compute,
// barrier, exchange, barrier — so one straggler rank stalls the world
// every step. This engine removes both barriers: VPs route emigrant
// particles the moment they cross a subdomain boundary, arrivals are
// drained incrementally *while other VPs are still computing*
// (iexchange-style delivery through vpr::StepInbox), and a step
// completes via Mattern four-counter distributed termination detection
// — a (sent, received) token circling the rank ring — instead of a
// collective. Combined with the `steal` placement strategy the engine
// both hides exchange latency behind compute and drains the straggler
// itself; see DESIGN.md "Execution models" for when to pick which loop.
//
// Verification is unchanged: the engine must reproduce the closed-form
// trajectory check and the id checksum bit-for-bit on every
// distribution, which pins the delivery rule (a step-s payload reaches
// VP B only after B's own step-s compute — otherwise B would move the
// arriving particles twice).
#pragma once

#include "comm/comm.hpp"
#include "par/driver_common.hpp"
#include "par/run_config.hpp"

namespace picprk::par {

/// Collective: every rank of `comm` runs the engine; the returned
/// DriverResult is identical on every rank. `config.lb.strategy` must
/// name a placement-capable strategy (default: "steal"). make_engine
/// runs it through run_resilient like the block drivers, which wires
/// the message faults, the reliable transport and the recv/deadlock
/// deadlines of config.resilience into the World; it rejects kill/stall
/// faults and checkpointing for async, which has no recovery ladder.
DriverResult run_async(comm::Comm& comm, const RunConfig& config);

}  // namespace picprk::par
