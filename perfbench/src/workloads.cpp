#include "workloads.hpp"

#include <stdexcept>

#include "ft/fault.hpp"

namespace perfbench {

namespace pic = picprk::pic;
namespace par = picprk::par;

namespace {

// Seed streams: every input seed of a workload is mix_seed(--seed, stream).
constexpr std::uint64_t kFaultStream = 1;
constexpr std::uint64_t kProblemStream = 100;
constexpr std::uint64_t kTenantStream = 200;

Problem make_problem(std::string name, std::uint64_t init_seed, std::int64_t cells,
                     std::uint64_t particles, pic::Distribution dist, std::int32_t k,
                     std::int32_t m, std::uint32_t steps) {
  Problem p;
  p.name = std::move(name);
  p.base.init.grid = pic::GridSpec(cells, 1.0);
  p.base.init.total_particles = particles;
  p.base.init.distribution = std::move(dist);
  p.base.init.k = k;
  p.base.init.m = m;
  p.base.init.seed = init_seed;
  p.base.steps = steps;
  p.placement_balancer = "greedy";
  return p;
}

/// The paper's §III-E5 events at fixed fractions of the run: `inject`
/// × n particles into the lower-left quarter at 40% of the steps, and
/// `remove` of every particle domain-wide at 70%.
pic::EventSchedule burst_events(const Problem& p, double inject, double remove) {
  const std::int64_t cells = p.base.init.grid.cells;
  const std::uint32_t steps = p.base.steps;
  pic::InjectionEvent in;
  in.step = steps * 2 / 5;
  in.region = pic::CellRegion{0, cells / 2, 0, cells / 2};
  const auto n = static_cast<double>(p.base.init.total_particles);
  in.count = static_cast<std::uint64_t>(inject * n);
  pic::RemovalEvent out;
  out.step = steps * 7 / 10;
  out.region = pic::CellRegion{0, cells, 0, cells};
  out.fraction = remove;
  return pic::EventSchedule({in}, {out});
}

/// The serve side of an engine workload: the same problem cut into
/// kThreads tenants of a quarter of the particles each, own seeds.
std::vector<Problem> quarter_tenants(const Problem& p, std::uint64_t seed,
                                     double inject, double remove) {
  std::vector<Problem> out;
  for (int t = 0; t < kThreads; ++t) {
    Problem q = p;
    q.name = "t" + std::to_string(t);
    q.base.init.total_particles = p.base.init.total_particles / kThreads;
    q.base.init.seed = mix_seed(seed, kTenantStream + static_cast<std::uint64_t>(t));
    if (!p.base.events.empty()) q.base.events = burst_events(q, inject, remove);
    out.push_back(std::move(q));
  }
  return out;
}

void finish(Workload& w) {
  for (std::vector<Problem>* group : {&w.problems, &w.tenants}) {
    for (Problem& p : *group) p.census = census(p.base.init, p.base.events, p.base.steps);
  }
}

}  // namespace

const std::vector<std::string>& engine_names() {
  static const std::vector<std::string> names = {"serial", "baseline", "diffusion",
                                                 "ampi", "async"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  w.seed = seed;
  w.fault_seed = mix_seed(seed, kFaultStream);
  const std::uint64_t main_seed = mix_seed(seed, kProblemStream);
  if (name == "uniform-mover") {
    // Balanced, k=0/m=0, LB off: ~1% of particles cross a block edge per
    // step, so the mover carries the time on every engine.
    w.problems.push_back(
        make_problem("main", main_seed, 256, 1'000'000, pic::Uniform{}, 0, 0, 10));
    w.tenants = quarter_tenants(w.problems.front(), seed, 0.0, 0.0);
  } else if (name == "geometric-drift") {
    // The paper's §V-B drifting cloud: the dense band crosses rank
    // boundaries every step and LB runs every 8 steps.
    w.lb_every = 8;
    w.problems.push_back(make_problem("main", main_seed, 200, 400'000,
                                      pic::Geometric{0.99}, 1, 1, 24));
    w.tenants = quarter_tenants(w.problems.front(), seed, 0.0, 0.0);
  } else if (name == "burst-checkpoint") {
    // A patch with a +50% injection and a 30% removal; checkpoints every
    // 8 steps over reliable transport with seeded dup+delay faults.
    w.lb_every = 8;
    w.checkpoint_every = 8;
    w.fault_plan = "dup:prob=0.02;delay:prob=0.02,ms=1";
    Problem p = make_problem("main", main_seed, 200, 200'000,
                             pic::Patch{pic::CellRegion{0, 60, 0, 60}}, 0, 0, 24);
    p.base.events = burst_events(p, 0.5, 0.3);
    w.problems.push_back(std::move(p));
    w.tenants = quarter_tenants(w.problems.front(), seed, 0.5, 0.3);
  } else if (name == "serve-mixed") {
    // A closed batch of four heterogeneous tenants; the engines run each
    // tenant's problem in isolation for comparison.
    w.lb_every = 8;
    const auto tenant_seed = [&](std::uint64_t t) {
      return mix_seed(seed, kTenantStream + t);
    };
    w.tenants.push_back(
        make_problem("uniform", tenant_seed(0), 128, 100'000, pic::Uniform{}, 1, 1, 24));
    w.tenants.push_back(make_problem("geometric", tenant_seed(1), 128, 100'000,
                                     pic::Geometric{0.99}, 1, 1, 24));
    w.tenants.back().weight = 2.0;
    w.tenants.push_back(
        make_problem("sinusoidal", tenant_seed(2), 128, 100'000, pic::Sinusoidal{}, 1, 1,
                     24));
    w.tenants.push_back(make_problem("patch", tenant_seed(3), 128, 100'000,
                                     pic::Patch{pic::CellRegion{0, 64, 0, 64}}, 1, 1,
                                     24));
    // The probes take the heaviest tenant's inputs.
    w.problems = {w.tenants[1], w.tenants[0], w.tenants[2], w.tenants[3]};
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  finish(w);
  return w;
}

par::RunConfig engine_config(const Workload& w, const Problem& problem,
                             const std::string& engine) {
  par::RunConfig c = problem.base;
  c.impl = engine;
  c.ranks = kThreads;
  c.workers = kThreads;
  c.overdecomposition = kOverdecomposition;
  c.lb.every = 0;
  if (engine == "diffusion") c.lb.strategy = "diffusion";
  if (engine == "ampi") c.lb.strategy = problem.placement_balancer;
  if (engine == "async") c.lb.strategy = "steal";
  if (!c.lb.strategy.empty()) c.lb.every = w.lb_every;

  // Checkpointing: every engine with a recovery path (async has none).
  if (engine == "baseline" || engine == "diffusion" || engine == "ampi") {
    c.resilience.checkpoint_every = w.checkpoint_every;
  }
  // Message faults and their in-band repair act on a comm::World's
  // mailboxes: baseline, diffusion and async own one; ampi does not.
  if (!w.fault_plan.empty() &&
      (engine == "baseline" || engine == "diffusion" || engine == "async")) {
    c.resilience.plan = picprk::ft::FaultPlan::parse(w.fault_plan, w.fault_seed);
    c.resilience.reliable = true;
  }
  return c;
}

picprk::svc::JobSpec tenant_spec(const Workload& w, const Problem& tenant) {
  picprk::svc::JobSpec spec;
  spec.name = tenant.name;
  spec.run = tenant.base;
  spec.run.impl = "ampi";
  spec.run.workers = 1;  // what svc::Job runs: the server's pool supplies the threads
  spec.run.overdecomposition = kOverdecomposition;
  spec.run.lb.strategy = tenant.placement_balancer;
  spec.run.lb.every = w.lb_every;
  spec.weight = tenant.weight;
  spec.checkpoint_every = w.checkpoint_every;
  return spec;
}

picprk::util::JsonObject describe(const par::RunConfig& c) {
  using picprk::util::JsonObject;
  const auto u64 = [](auto v) { return static_cast<std::uint64_t>(v); };
  const auto i64 = [](auto v) { return static_cast<std::int64_t>(v); };
  const auto region = [](const pic::CellRegion& r) {
    return std::vector<double>{static_cast<double>(r.x0), static_cast<double>(r.x1),
                               static_cast<double>(r.y0), static_cast<double>(r.y1)};
  };
  const pic::InitParams& in = c.init;
  std::vector<JsonObject> events;
  for (const pic::InjectionEvent& e : c.events.injections()) {
    events.push_back(JsonObject()
                         .add("inject", u64(e.count))
                         .add("step", u64(e.step))
                         .add("region", region(e.region)));
  }
  for (const pic::RemovalEvent& e : c.events.removals()) {
    events.push_back(JsonObject()
                         .add("remove_fraction", e.fraction)
                         .add("step", u64(e.step))
                         .add("region", region(e.region)));
  }
  std::vector<JsonObject> faults;
  for (const picprk::ft::FaultSpec& f : c.resilience.plan.specs) {
    faults.push_back(JsonObject()
                         .add("kind", std::string(picprk::ft::to_string(f.kind)))
                         .add("prob", f.probability)
                         .add("ms", i64(f.ms)));
  }
  JsonObject o;
  o.add("engine", c.impl)
      .add("balancer", c.lb.strategy)
      .add("lb_every", u64(c.lb.every))
      .add("ranks", i64(c.ranks))
      .add("workers", i64(c.workers))
      .add("d", i64(c.overdecomposition))
      .add("cells", i64(in.grid.cells))
      .add("particles_requested", u64(in.total_particles))
      .add("distribution", pic::distribution_name(in.distribution))
      .add("k", i64(in.k))
      .add("m", i64(in.m))
      .add("steps", u64(c.steps))
      .add("init_seed", u64(in.seed))
      .add("events", events)
      .add("checkpoint_every", u64(c.resilience.checkpoint_every))
      .add("reliable", c.resilience.reliable)
      .add("fault_seed", u64(c.resilience.plan.seed))
      .add("faults", faults);
  return o;
}

}  // namespace perfbench
