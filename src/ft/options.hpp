// Per-driver fault-tolerance options, embedded in par::DriverConfig.
// Pointer-only so that including this header pulls in no machinery;
// drivers with all fields defaulted pay a single branch per step.
#pragma once

namespace picprk::ft {

class FaultInjector;
class CheckpointStore;
class RecoveryCoordinator;

struct FtOptions {
  /// Step-level fault source (kills, stalls); also installed as the
  /// world's message-level hook by the recovery wrapper. Not owned.
  FaultInjector* injector = nullptr;
  /// Snapshot destination; must outlive the world so recovery can read
  /// it after an abort. Set only when the run checkpoints, at the cadence
  /// par::ResilienceOptions::checkpoint_cadence() gives. Not owned.
  CheckpointStore* store = nullptr;
  /// Localized-recovery coordinator (coordinator.hpp). When set, a
  /// driver catching RankKilled declares the victim dead and every rank
  /// joins the rendezvous instead of tearing the world down; null keeps
  /// the rollback-only behaviour. Installed by par::run_resilient under
  /// RecoveryMode::kLocal. Not owned.
  RecoveryCoordinator* coordinator = nullptr;
  /// This run is a recovery attempt: restore from the store's last
  /// consistent checkpoint before stepping.
  bool resume = false;

  bool checkpointing() const { return store != nullptr; }
  bool localized() const { return coordinator != nullptr && checkpointing(); }
  bool active() const { return injector != nullptr || checkpointing(); }
};

}  // namespace picprk::ft
