// Per-VP inbox for incremental (iexchange-style) delivery outside the
// superstep runtime, which delivers only after every VP has stepped.
// The async engine (par/async) drains the wire while VPs are still
// computing; a payload produced in step s may only reach VP B after B
// has finished its own step-s compute (otherwise B would move the
// arriving particles a second time). StepInbox holds the early
// arrivals and flushes them at exactly that point, keeping the
// eligibility rule in one place.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/assert.hpp"
#include "vpr/vp.hpp"

namespace picprk::vpr {

/// Step-stamped holding queue for one VirtualProcessor.
class StepInbox {
 public:
  /// Parks a payload stamped with the sender's step until the owner has
  /// computed that step itself.
  void hold(std::uint32_t step, int src_vp, std::vector<std::byte> payload) {
    held_.push_back(Held{step, src_vp, std::move(payload)});
  }

  /// Delivers every payload stamped `step` to `vp` — call immediately
  /// after vp finishes its step-`step` compute. By the termination
  /// invariant nothing older can still be parked, and nothing newer than
  /// step+1 can exist yet; both are asserted.
  void flush(std::uint32_t step, VirtualProcessor& vp) {
    std::size_t kept = 0;
    for (auto& h : held_) {
      PICPRK_ASSERT_MSG(h.step >= step, "StepInbox: payload missed its delivery step");
      if (h.step == step) {
        vp.deliver(h.src_vp, std::move(h.payload));
      } else {
        held_[kept++] = std::move(h);
      }
    }
    held_.resize(kept);
  }

  bool empty() const { return held_.empty(); }
  std::size_t size() const { return held_.size(); }

 private:
  struct Held {
    std::uint32_t step;
    int src_vp;
    std::vector<std::byte> payload;
  };
  std::vector<Held> held_;
};

}  // namespace picprk::vpr
