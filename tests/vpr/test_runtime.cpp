#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <numeric>

#include "vpr/runtime.hpp"

namespace {

using picprk::vpr::Pup;
using picprk::vpr::Runtime;
using picprk::vpr::RuntimeConfig;
using picprk::vpr::VirtualProcessor;
using picprk::vpr::VpContext;

/// Each VP holds a counter and passes a token around a ring every step.
class RingVp final : public VirtualProcessor {
 public:
  explicit RingVp(int id) : VirtualProcessor(id) {}

  void step(VpContext& ctx) override {
    ++steps_;
    const int next = (id() + 1) % ctx.vps();
    std::vector<std::byte> payload(sizeof(std::uint64_t));
    const std::uint64_t value = static_cast<std::uint64_t>(id()) * 1000 + ctx.step();
    std::memcpy(payload.data(), &value, sizeof(value));
    ctx.send(next, std::move(payload));
  }

  void deliver(int src_vp, std::vector<std::byte> payload) override {
    ASSERT_EQ(payload.size(), sizeof(std::uint64_t));
    std::uint64_t value = 0;
    std::memcpy(&value, payload.data(), sizeof(value));
    EXPECT_EQ(src_vp, (id() + vps_hint_ - 1) % vps_hint_);
    received_ += value;
    ++messages_;
  }

  double load() const override { return weight_; }

  void pup(Pup& p) override {
    p(steps_);
    p(received_);
    p(messages_);
    p(weight_);
    p(vps_hint_);
  }

  std::uint64_t steps_ = 0;
  std::uint64_t received_ = 0;
  std::uint64_t messages_ = 0;
  double weight_ = 1.0;
  int vps_hint_ = 0;
};

RuntimeConfig make_config(int workers, int vps, std::uint32_t interval = 0,
                          const std::string& balancer = "greedy") {
  RuntimeConfig c;
  c.workers = workers;
  c.vps = vps;
  c.lb_interval = interval;
  c.balancer = balancer;
  return c;
}

TEST(RuntimeTest, EveryVpStepsEveryStep) {
  Runtime rt(make_config(2, 6), [](int id) {
    auto vp = std::make_unique<RingVp>(id);
    vp->vps_hint_ = 6;
    return vp;
  });
  rt.run(10);
  rt.for_each_vp([](VirtualProcessor& vp) {
    EXPECT_EQ(static_cast<RingVp&>(vp).steps_, 10u);
  });
  EXPECT_EQ(rt.stats().steps, 10u);
}

TEST(RuntimeTest, MessagesDeliveredOncePerStep) {
  const int vps = 5;
  Runtime rt(make_config(2, vps), [vps](int id) {
    auto vp = std::make_unique<RingVp>(id);
    vp->vps_hint_ = vps;
    return vp;
  });
  rt.run(7);
  rt.for_each_vp([](VirtualProcessor& vp) {
    EXPECT_EQ(static_cast<RingVp&>(vp).messages_, 7u);
  });
  EXPECT_EQ(rt.stats().messages, 7u * vps);
}

TEST(RuntimeTest, InitialPlacementIsBlockwise) {
  Runtime rt(make_config(2, 8), [](int id) {
    auto vp = std::make_unique<RingVp>(id);
    vp->vps_hint_ = 8;
    return vp;
  });
  for (int v = 0; v < 4; ++v) EXPECT_EQ(rt.worker_of(v), 0);
  for (int v = 4; v < 8; ++v) EXPECT_EQ(rt.worker_of(v), 1);
}

TEST(RuntimeTest, GreedyLbMigratesSkewedVps) {
  // VPs 0..3 (on worker 0) are heavy: greedy must move some across.
  Runtime rt(make_config(2, 8, /*interval=*/2), [](int id) {
    auto vp = std::make_unique<RingVp>(id);
    vp->vps_hint_ = 8;
    vp->weight_ = id < 4 ? 100.0 : 1.0;
    return vp;
  });
  rt.run(5);
  EXPECT_GT(rt.stats().lb_invocations, 0u);
  EXPECT_GT(rt.stats().migrations, 0u);
  EXPECT_GT(rt.stats().migrated_bytes, 0u);
  // After balancing, the heavy VPs must be spread over both workers.
  int heavy_on_0 = 0, heavy_on_1 = 0;
  for (int v = 0; v < 4; ++v) (rt.worker_of(v) == 0 ? heavy_on_0 : heavy_on_1)++;
  EXPECT_GT(heavy_on_0, 0);
  EXPECT_GT(heavy_on_1, 0);
}

TEST(RuntimeTest, MigrationPreservesVpState) {
  Runtime rt(make_config(2, 4, /*interval=*/1, "rotate"), [](int id) {
    auto vp = std::make_unique<RingVp>(id);
    vp->vps_hint_ = 4;
    return vp;
  });
  rt.run(6);  // rotate migrates every VP every step after step 0
  EXPECT_GE(rt.stats().migrations, 4u);
  rt.for_each_vp([](VirtualProcessor& vp) {
    auto& ring = static_cast<RingVp&>(vp);
    EXPECT_EQ(ring.steps_, 6u);      // state survived the pack/unpack cycles
    EXPECT_EQ(ring.messages_, 6u);
  });
}

TEST(RuntimeTest, NullLbNeverMigrates) {
  Runtime rt(make_config(2, 6, /*interval=*/1, "null"), [](int id) {
    auto vp = std::make_unique<RingVp>(id);
    vp->vps_hint_ = 6;
    return vp;
  });
  rt.run(5);
  EXPECT_GT(rt.stats().lb_invocations, 0u);
  EXPECT_EQ(rt.stats().migrations, 0u);
}

TEST(RuntimeTest, CrossWorkerBytesTracked) {
  // Ring over 2 workers: the 2 boundary messages per step cross workers.
  Runtime rt(make_config(2, 4), [](int id) {
    auto vp = std::make_unique<RingVp>(id);
    vp->vps_hint_ = 4;
    return vp;
  });
  rt.run(3);
  EXPECT_EQ(rt.stats().message_bytes, 3u * 4u * sizeof(std::uint64_t));
  EXPECT_EQ(rt.stats().cross_worker_bytes, 3u * 2u * sizeof(std::uint64_t));
}

TEST(RuntimeTest, SingleWorkerInlinePath) {
  Runtime rt(make_config(1, 3), [](int id) {
    auto vp = std::make_unique<RingVp>(id);
    vp->vps_hint_ = 3;
    return vp;
  });
  rt.run(4);
  rt.for_each_vp([](VirtualProcessor& vp) {
    EXPECT_EQ(static_cast<RingVp&>(vp).steps_, 4u);
  });
}

TEST(RuntimeTest, ImbalanceRecordedBeforeLb) {
  Runtime rt(make_config(2, 4, /*interval=*/2), [](int id) {
    auto vp = std::make_unique<RingVp>(id);
    vp->vps_hint_ = 4;
    vp->weight_ = id == 0 ? 10.0 : 1.0;
    return vp;
  });
  rt.run(3);
  ASSERT_FALSE(rt.stats().imbalance_before_lb.empty());
  EXPECT_GT(rt.stats().imbalance_before_lb.front(), 1.0);
}

TEST(RuntimeTest, VpExceptionPropagates) {
  class ThrowingVp final : public VirtualProcessor {
   public:
    explicit ThrowingVp(int id) : VirtualProcessor(id) {}
    void step(VpContext&) override { throw std::runtime_error("vp boom"); }
    void deliver(int, std::vector<std::byte>) override {}
    double load() const override { return 1.0; }
    void pup(Pup&) override {}
  };
  Runtime rt(make_config(2, 2), [](int id) { return std::make_unique<ThrowingVp>(id); });
  EXPECT_THROW(rt.run(1), std::runtime_error);
}

TEST(RuntimeTest, ThrowingSuperstepLeavesClockAtLastCompletedStep) {
  class ThrowsAtStep3 final : public VirtualProcessor {
   public:
    explicit ThrowsAtStep3(int id) : VirtualProcessor(id) {}
    void step(VpContext& ctx) override {
      if (id() == 1 && ctx.step() == 3) throw std::runtime_error("vp boom at 3");
    }
    void deliver(int, std::vector<std::byte>) override {}
    double load() const override { return 1.0; }
    void pup(Pup&) override {}
  };
  for (const int workers : {1, 2}) {
    SCOPED_TRACE(workers);
    Runtime rt(make_config(workers, 4),
               [](int id) { return std::make_unique<ThrowsAtStep3>(id); });
    EXPECT_THROW(rt.run(5), std::runtime_error);
    // Supersteps 0..2 completed; the clock must say so.
    EXPECT_EQ(rt.current_step(), 3u);
    EXPECT_EQ(rt.stats().steps, 3u);
  }
}

TEST(RuntimeTest, DeliveryOrderIsAscendingSourceWhateverThePlacement) {
  // Every VP sends to VP 0, which logs the sources in arrival order.
  class FanInVp final : public VirtualProcessor {
   public:
    explicit FanInVp(int id) : VirtualProcessor(id) {}
    void step(VpContext& ctx) override { ctx.send(0, {}); }
    void deliver(int src_vp, std::vector<std::byte>) override { sources_.push_back(src_vp); }
    double load() const override { return 1.0; }
    void pup(Pup& p) override { p(sources_); }
    std::vector<int> sources_;
  };
  const int vps = 4;
  const std::uint32_t steps = 6;
  // rotate moves every VP to the next worker at every step, so the
  // worker hosting each sender changes from step to step.
  Runtime rt(make_config(2, vps, /*interval=*/1, "rotate"),
             [](int id) { return std::make_unique<FanInVp>(id); });
  rt.run(steps);
  ASSERT_GE(rt.stats().migrations, 4u);
  const auto& sources = static_cast<FanInVp&>(rt.vp(0)).sources_;
  ASSERT_EQ(sources.size(), static_cast<std::size_t>(vps) * steps);
  for (std::uint32_t s = 0; s < steps; ++s) {
    for (int v = 0; v < vps; ++v) {
      EXPECT_EQ(sources[s * vps + static_cast<std::size_t>(v)], v) << "step " << s;
    }
  }
}

TEST(RuntimeTest, MoreVpsThanWorkersRequired) {
  EXPECT_THROW(Runtime(make_config(4, 2), [](int id) {
                 return std::make_unique<RingVp>(id);
               }),
               picprk::ContractViolation);
}

}  // namespace
