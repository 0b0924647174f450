// Self-tests of the benchmark's own arithmetic: the particle-step census
// across injection and removal, the set-up subtraction, span self time
// and the median every reported value goes through.
// Run: `python3 perfbench/run.py --selftest` (exit 0 = all pass).
#include <cmath>
#include <cstdio>
#include <vector>

#include "arith.hpp"
#include "pic/charge.hpp"
#include "pic/simulation.hpp"
#include "spans.hpp"

namespace {

int g_failures = 0;

void check(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++g_failures;
}

bool near(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
}

namespace pic = picprk::pic;
using perfbench::Census;

pic::InitParams small_problem(pic::Distribution dist) {
  pic::InitParams p;
  p.grid = pic::GridSpec(16, 1.0);
  p.total_particles = 2000;
  p.distribution = dist;
  p.k = 1;
  p.m = 1;
  p.seed = 7;
  return p;
}

/// The census by brute force: step the particles for real and count the
/// population after each step's events.
Census stepped(const pic::InitParams& params, const pic::EventSchedule& events,
               std::uint32_t steps) {
  const pic::Initializer init(params);
  std::vector<pic::Particle> live = init.create_all();
  const pic::AlternatingColumnCharges charges(params.mesh_q);
  const std::int64_t cells = params.grid.cells;
  Census c;
  for (std::uint32_t s = 0; s < steps; ++s) {
    events.apply_step(init, s, 0, cells, 0, cells, live);
    c.particle_steps += live.size();
    pic::serial_step(live, params.grid, charges, params.dt);
  }
  c.final_particles = live.size();
  for (const pic::Particle& p : live) c.final_id_sum += p.id;
  return c;
}

void census_tests() {
  // No events: n particles for every step.
  {
    const pic::InitParams p = small_problem(pic::Uniform{});
    const pic::Initializer init(p);
    const Census c = perfbench::census(p, {}, 10);
    const std::uint64_t n = init.total();
    check(c.initial_particles == n && c.particle_steps == 10 * n &&
              c.final_particles == n && c.final_id_sum == n * (n + 1) / 2,
          "census without events is n*steps and n(n+1)/2");
  }
  // Injection at step 4 then a 100% removal at step 7: the population is
  // n for 4 steps, n+injected for 3, then nothing.
  {
    const pic::InitParams p = small_problem(pic::Uniform{});
    const pic::Initializer init(p);
    const pic::CellRegion all{0, 16, 0, 16};
    const pic::EventSchedule ev({{4, all, 500}}, {{7, all, 1.0}});
    const Census c = perfbench::census(p, ev, 10);
    const std::uint64_t n = init.total();
    const std::uint64_t injected = ev.injection_total(init, 0);
    check(c.particle_steps == 4 * n + 3 * (n + injected) && c.final_particles == 0 &&
              c.final_id_sum == 0,
          "census counts injection and full removal by step");
  }
  // Removal and injection at the same step: removal sees only the older
  // particles, so the newborns all count.
  {
    const pic::InitParams p = small_problem(pic::Uniform{});
    const pic::Initializer init(p);
    const pic::CellRegion all{0, 16, 0, 16};
    const pic::EventSchedule ev({{5, all, 300}}, {{5, all, 1.0}});
    const Census c = perfbench::census(p, ev, 8);
    const std::uint64_t injected = ev.injection_total(init, 0);
    check(c.particle_steps == 5 * init.total() + 3 * injected &&
              c.final_particles == injected,
          "census applies removal before a same-step injection");
  }
  // Partial removal in a sub-region of a drifting skewed cloud: the
  // closed-form census equals stepping the particles for real.
  {
    const pic::InitParams p = small_problem(pic::Geometric{0.9});
    const pic::EventSchedule ev({{3, pic::CellRegion{0, 8, 0, 8}, 700}},
                                {{6, pic::CellRegion{4, 12, 2, 14}, 0.3}});
    const Census a = perfbench::census(p, ev, 12);
    const Census b = stepped(p, ev, 12);
    check(a.particle_steps == b.particle_steps &&
              a.final_particles == b.final_particles && a.final_id_sum == b.final_id_sum,
          "census matches a stepped simulation through partial removal");
    pic::SimulationConfig sim;
    sim.init = p;
    sim.steps = 12;
    sim.events = ev;
    const pic::SimulationResult r = pic::run_serial(sim);
    check(r.ok() && r.final_particles == a.final_particles &&
              r.expected_id_checksum == a.final_id_sum,
          "census final count and checksum equal the serial kernel's oracle");
  }
}

void setup_tests() {
  const std::vector<perfbench::RunTiming> runs = {{2.0, 1.5}, {1.0, 0.25}};
  check(near(perfbench::setup_seconds(runs, 0.1), 1.35),
        "setup_s sums wall minus stepping over runs plus submit time");
  check(near(perfbench::setup_seconds({}, 0.0), 0.0), "setup_s of no runs is zero");
}

void span_tests() {
  using perfbench::Span;
  // Parent [0,100]; children [10,30] and [20,50] overlap, [90,120] sticks
  // out; a grandchild inside the first child must not count for the parent.
  const std::vector<Span> spans = {
      {"p", 0, 100, 0, -1, 0},   {"a", 10, 30, 1, 0, 0}, {"b", 20, 50, 2, 0, 1},
      {"c", 90, 120, 3, 0, 2},   {"g", 12, 18, 4, 1, 0},
  };
  const std::vector<double> self = perfbench::self_time_us(spans);
  check(near(self[0], 50.0), "span self time subtracts the union of children, clipped");
  check(near(self[1], 14.0) && near(self[2], 30.0) && near(self[3], 30.0) &&
            near(self[4], 6.0),
        "span self time of children and leaves");
  const auto by_name = perfbench::self_ms_by_name(spans);
  check(near(by_name.at("p"), 0.05), "self time per name is reported in ms");
}

void stats_tests() {
  check(near(perfbench::median({3, 1, 2}), 2.0) &&
            near(perfbench::median({4, 1, 3, 2}), 2.5),
        "median of odd and even counts");
  check(perfbench::mix_seed(1, 0) != perfbench::mix_seed(1, 1) &&
            perfbench::mix_seed(1, 0) == perfbench::mix_seed(1, 0),
        "derived seeds are deterministic and differ per stream");
}

}  // namespace

int main() {
  census_tests();
  setup_tests();
  span_tests();
  stats_tests();
  std::printf("%d failure(s)\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}
