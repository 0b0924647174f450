// The `adaptive` strategy: a cost-model wrapper that invokes an inner
// strategy only when rebalancing is predicted to pay for itself. The
// prediction compares the imbalance cost over the next interval —
// derived from the λ = max/mean telemetry the obs subsystem samples —
// against the *measured* cost of the previous LB event, scaled by a
// hysteresis factor so the decision does not flap around the breakeven
// point:
//
//   rebalance  ⇔  λ > 1 + min_gain  AND  predicted_waste > hysteresis × last_cost
//
// where, when timing telemetry is available (measured metric or obs
// sampling), predicted_waste = (λ−1) · interval_compute_seconds and
// last_cost is the allreduced wall time of the previous event; without
// timing both sides fall back to load units: (λ−1) · mean_load ·
// interval_steps versus move_cost · moved_load of the previous event.
//
// Determinism: the decision is a pure function of the (globally
// identical) input plus internal cost state, and that state advances
// only through note_applied(), which the caller feeds exclusively with
// allreduced values — so every rank's adaptive instance stays
// bit-identical.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "lb/strategy.hpp"

namespace picprk::lb {

struct AdaptiveOptions {
  /// Required benefit/cost ratio before rebalancing (≥ 1 damps flapping).
  double hysteresis = 1.5;
  /// λ floor: never rebalance below 1 + min_gain.
  double min_gain = 0.02;
  /// Load-units fallback: moving one unit of load is priced at this
  /// many load·steps of imbalance waste.
  double move_cost = 3.0;
};

class AdaptiveStrategy final : public Strategy {
 public:
  /// `bounds_inner` handles boundary plans (may be null when unused),
  /// `placement_inner` placement plans. The registry wires the inner
  /// strategies from the `inner=` option (defaults: diffusion / greedy).
  AdaptiveStrategy(std::unique_ptr<Strategy> bounds_inner,
                   std::unique_ptr<Strategy> placement_inner,
                   const AdaptiveOptions& options);

  std::string name() const override { return "adaptive"; }
  bool balances_bounds() const override { return bounds_inner_ != nullptr; }
  bool balances_placement() const override { return placement_inner_ != nullptr; }
  bool supports_degraded() const override {
    return placement_inner_ != nullptr && placement_inner_->supports_degraded();
  }
  bool wants_y_phase() const override;

  std::vector<std::int64_t> rebalance_bounds(const BoundsInput& in) override;
  std::vector<int> rebalance_placement(const PlacementInput& in) override;

  bool wants_feedback() const override { return true; }
  void note_applied(const ApplyFeedback& feedback) override;

 private:
  bool should_rebalance(double lambda, double mean_load,
                        std::uint32_t interval_steps,
                        double interval_compute_seconds) const;

  std::unique_ptr<Strategy> bounds_inner_;
  std::unique_ptr<Strategy> placement_inner_;
  AdaptiveOptions options_;
  double last_cost_seconds_ = 0.0;
  double last_moved_load_ = 0.0;
};

}  // namespace picprk::lb
