#include "par/resilient.hpp"

#include <algorithm>
#include <utility>

#include "comm/comm.hpp"
#include "comm/world.hpp"
#include "ft/coordinator.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"

namespace picprk::par {

void DriverSnapshot::pup(vpr::Pup& p) {
  p(step);
  p(x_bounds);
  p(y_bounds);
  p(particles);
  p(removed_sum);
  p(sent);
  p(bytes);
  p(lb_actions);
  p(lb_bytes);
  p(samples);
}

std::uint64_t checkpoint_exchange(comm::Comm& comm, ft::CheckpointStore& store,
                                  DriverSnapshot& snap) {
  std::vector<std::byte> packed = vpr::pup_pack(snap);
  const std::uint64_t size = packed.size();
  if (comm.size() == 1) {
    store.save(comm.rank(), snap.step, std::move(packed));
    return size;
  }
  const int buddy = (comm.rank() + 1) % comm.size();
  const int prev = (comm.rank() + comm.size() - 1) % comm.size();
  // Ship first (buffered send never blocks), then keep the primary.
  comm.send(std::span<const std::byte>(packed), buddy, kCheckpointTag);
  store.save(comm.rank(), snap.step, std::move(packed));
  // Receive prev's snapshot and hold it as prev's buddy copy. All ranks
  // checkpoint the same step, so the incoming copy is tagged snap.step.
  std::vector<std::byte> incoming = comm.recv<std::byte>(prev, kCheckpointTag);
  store.save_buddy(prev, snap.step, std::move(incoming));
  return 2 * size;  // packed locally + shipped to the buddy
}

std::optional<DriverSnapshot> restore_snapshot(int rank, int slots,
                                               const ft::CheckpointStore& store) {
  const std::optional<std::uint32_t> step = store.consistent_step(slots);
  if (!step) return std::nullopt;
  std::optional<std::vector<std::byte>> bytes = store.load(rank, *step);
  if (!bytes) return std::nullopt;
  DriverSnapshot snap;
  vpr::pup_unpack(snap, std::move(*bytes));
  PICPRK_ASSERT_MSG(snap.step == *step, "checkpoint snapshot tagged with wrong step");
  return snap;
}

DriverResult run_resilient(const RunConfig& config, const DriverFn& driver,
                           ResilienceTelemetry* telemetry) {
  const int ranks = config.ranks;
  const ResilienceOptions& options = config.resilience;
  PICPRK_EXPECTS(ranks >= 1);
  options.validate();
  const bool local_mode = options.recovery == RecoveryMode::kLocal;

  ft::FaultInjector injector(options.plan);
  ft::CheckpointStore store;

  comm::WorldOptions world_options;
  world_options.timeout_ms = options.timeout_ms;
  world_options.deadlock_ms = options.deadlock_ms;
  world_options.fault_hook = options.plan.empty() ? nullptr : &injector;
  world_options.reliable.enabled = options.reliable;
  world_options.reliable.rto_ms = options.rto_ms;
  world_options.reliable.max_retransmits = options.retransmit_budget;
  comm::World world(ranks, world_options);

  // Localized recovery needs every step checkpointed so the surviving
  // ranks replay at most one step (validated above: checkpoint_every > 0).
  std::optional<ft::RecoveryCoordinator> coordinator;
  if (local_mode) {
    coordinator.emplace(&store, ranks,
                        options.timeout_ms > 0 ? options.timeout_ms : 10000);
  }

  RunConfig cfg = config;
  cfg.ft.injector = options.plan.empty() ? nullptr : &injector;
  cfg.ft.store = options.checkpoint_cadence() > 0 ? &store : nullptr;
  cfg.ft.coordinator = coordinator ? &*coordinator : nullptr;
  cfg.ft.resume = false;

  std::uint32_t rollbacks = 0;
  std::uint64_t residual = 0;
  std::vector<std::string> failures;

  const auto can_recover = [&] {
    return cfg.ft.checkpointing() && rollbacks < options.max_recoveries &&
           store.consistent_step(ranks).has_value();
  };
  const auto note_failure = [&](const char* kind, const std::exception& e) {
    failures.emplace_back(std::string(kind) + ": " + e.what());
    PICPRK_WARN("resilient run failed (" << kind << "): " << e.what()
                                         << (can_recover() ? " -- rolling back"
                                                           : " -- not recoverable"));
  };

  // Per-process obs mirrors of the ladder's outcome counters — the
  // instrument the acceptance criteria read ("zero rollbacks"). A run
  // with no resilience knob set registers none of them.
  obs::Counter* rollback_counter = nullptr;
  obs::Counter* localized_counter = nullptr;
  obs::Counter* replayed_counter = nullptr;
  if (cfg.obs.registry != nullptr && options.active()) {
    rollback_counter = &cfg.obs.registry->register_counter("ft/rollbacks");
    localized_counter = &cfg.obs.registry->register_counter("ft/localized_recoveries");
    replayed_counter = &cfg.obs.registry->register_counter("ft/replayed_steps");
  }

  DriverResult result;
  for (;;) {
    try {
      if (coordinator) {
        coordinator->attach(&world.state());
        coordinator->begin_run();
      }
      world.run([&](comm::Comm& comm) {
        DriverResult local = driver(comm, cfg);
        // Results are identical on every rank; rank 0 publishes.
        if (comm.rank() == 0) result = std::move(local);
      });
      break;
    } catch (const ft::RankKilled& e) {
      // The dead rank's memory is gone: only buddy copies of its
      // snapshots survive into the recovery attempt. (Under localized
      // recovery the drivers catch RankKilled in-process; reaching this
      // handler means the rendezvous path itself gave up.)
      store.drop_primary(e.rank());
      note_failure("rank-killed", e);
      if (!can_recover()) throw;
    } catch (const ft::RecoveryFailed& e) {
      // The localized rung failed (rendezvous timeout, or no consistent
      // line) — fall down to the rollback rung. declare_dead() already
      // dropped the victim's primary copies.
      note_failure("recovery-failed", e);
      if (!can_recover()) throw;
    } catch (const comm::CommTimeout& e) {
      note_failure("comm-timeout", e);
      if (!can_recover()) throw;
    } catch (const comm::DeadlockDetected& e) {
      note_failure("deadlock", e);
      if (!can_recover()) throw;
    }
    // A clean rerun resets the world's counter: record the drain now.
    residual += world.residual_messages();
    ++rollbacks;
    if (rollback_counter != nullptr) rollback_counter->add();
    cfg.ft.resume = true;
  }

  const std::uint32_t localized =
      std::max(result.localized_recoveries,
               coordinator ? coordinator->recoveries() : 0u);
  result.localized_recoveries = localized;
  result.recoveries = rollbacks + localized;
  if (localized_counter != nullptr && localized > 0) localized_counter->add(localized);
  if (replayed_counter != nullptr && result.replayed_steps > 0) {
    replayed_counter->add(result.replayed_steps);
  }
  if (telemetry) {
    telemetry->recoveries = result.recoveries;
    telemetry->rollbacks = rollbacks;
    telemetry->localized_recoveries = localized;
    telemetry->replayed_steps = result.replayed_steps;
    telemetry->trace = injector.trace();
    telemetry->dropped = injector.dropped();
    telemetry->duplicated = injector.duplicated();
    telemetry->delayed = injector.delayed();
    telemetry->kills = injector.kills();
    telemetry->stalls = injector.stalls();
    telemetry->checkpoint_saves = store.saves();
    telemetry->residual_messages = residual + world.residual_messages();
    telemetry->residual_duplicates = world.residual_duplicates();
    if (coordinator) telemetry->drained_messages = coordinator->drained_messages();
    const comm::TransportStats ts = world.transport_stats();
    telemetry->retransmits = ts.retransmits;
    telemetry->dup_dropped = ts.dup_dropped;
    telemetry->reordered = ts.reordered;
    telemetry->abandoned = ts.abandoned;
    telemetry->failures = std::move(failures);
  }
  return result;
}

}  // namespace picprk::par
