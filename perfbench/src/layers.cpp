// The traced run: (1) the engines again with the program's own obs::Hooks
// attached, alternating with dark runs of the same config, for the
// counters and the telemetry overhead; (2) probes that time calls into
// each layer's public functions on the workload's own particles,
// decomposition and loads, each inside a benchmark-owned span.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <iostream>
#include <memory>

#include "comm/cart.hpp"
#include "comm/world.hpp"
#include "ft/checkpoint.hpp"
#include "ft/fault.hpp"
#include "host.hpp"
#include "lb/registry.hpp"
#include "measure.hpp"
#include "obs/registry.hpp"
#include "par/decomposition.hpp"
#include "par/exchange.hpp"
#include "par/pic_vp.hpp"
#include "pic/charge.hpp"
#include "pic/mover.hpp"
#include "pic/tiling.hpp"
#include "pic/verify.hpp"
#include "runs.hpp"
#include "spans.hpp"
#include "svc/scheduler.hpp"
#include "util/timer.hpp"
#include "vpr/pup.hpp"
#include "vpr/runtime.hpp"
#include "ws/pool.hpp"

namespace perfbench {

namespace pic = picprk::pic;
namespace par = picprk::par;
namespace comm = picprk::comm;
using picprk::util::Timer;

namespace {

constexpr int kPingTag = 9001;       // benchmark-private point-to-point tag
constexpr std::uint32_t kSampleEvery = 4;  // λ sampling cadence of traced runs
/// Bytes the mover streams per particle: reads x, y, vx, vy, q and
/// writes x, y, vx, vy (computed from the kernel's loads and stores).
constexpr double kMoverBytesPerParticle = 72.0;

double safe_div(double a, double b) { return b != 0.0 ? a / b : 0.0; }

/// Median wall time of `reps` calls of `fn`, in seconds.
template <typename F>
double median_seconds(int reps, F&& fn) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const Timer timer;
    fn();
    t.push_back(timer.elapsed());
  }
  return median(t);
}

class Probes {
 public:
  Probes(const Workload& w, const Options& options)
      : w_(w), options_(options), probe_(w.probe()), grid_(probe_.base.init.grid) {}

  Result run();

 private:
  void put(const std::string& name, double value, const std::string& unit) {
    result_.metrics.push_back(Metric{name, value, unit});
  }
  void count(const EngineRun& r) {
    ++result_.attempted;
    if (!r.error.empty()) {
      ++result_.failed;
      result_.failures.push_back(r.error);
    }
  }

  void engines();
  void serve();
  void pic_layer();
  void pic_dram();
  void comm_and_par();
  void lb_layer();
  void vpr_layer();
  void ws_layer();
  void ft_layer();

  const Workload& w_;
  const Options& options_;
  const Problem& probe_;
  const pic::GridSpec& grid_;
  SpanRecorder spans_;
  Result result_;
  Timer clock_;
  std::vector<pic::Particle> particles_;  // the probe problem's initial particles
  double emigrant_bytes_rank_step_ = 0.0;  // from the traced baseline run
  std::vector<double> tenant_cost_;        // measured by the traced server batch
  std::vector<std::string> probe_failures_;  // a probe's own sanity checks
};

void Probes::engines() {
  const SpanRecorder::Scope all(spans_, "engines");
  for (const std::string& e : {std::string("baseline"), std::string("diffusion"),
                               std::string("ampi"), std::string("async")}) {
    const SpanRecorder::Scope span(spans_, "engine." + e);
    std::vector<double> dark;
    std::vector<double> traced;
    // Alternate dark and traced runs of the same config; at least two
    // pairs, a third while the budget allows.
    for (int pair = 0; pair < 3; ++pair) {
      if (pair == 2 && clock_.elapsed() > 0.4 * options_.seconds) break;
      {
        const SpanRecorder::Scope s(spans_, "engine.dark");
        const EngineRun run = run_engine(w_, probe_, e);
        count(run);
        dark.push_back(run.timing.stepping_seconds);
      }
      const SpanRecorder::Scope s(spans_, "engine.traced");
      picprk::obs::Registry registry;
      picprk::obs::Trace trace;
      const EngineRun run = run_engine(w_, probe_, e, {&registry, &trace}, kSampleEvery);
      count(run);
      traced.push_back(run.timing.stepping_seconds);
      if (pair > 0) continue;
      trace.write_json(options_.out_dir + "/obs-" + e + ".json");
      const par::DriverResult& r = run.report.result;
      const double steps = probe_.base.steps;
      const auto exchanged = static_cast<double>(r.particles_exchanged);
      const auto exchange_bytes = static_cast<double>(r.exchange_bytes);
      put("par.exchanged_pp_step." + e, exchanged / steps, "particles");
      put("par.exchange_kb_step." + e, exchange_bytes / 1024.0 / steps, "KiB");
      put("par.phase.compute_s." + e, r.phases.compute, "s");
      if (e != "ampi") put("par.phase.exchange_s." + e, r.phases.exchange, "s");
      if (e != "baseline") put("par.phase.lb_s." + e, r.phases.lb, "s");
      if (e != "async") put("par.phase.checkpoint_s." + e, r.phases.checkpoint, "s");
      if (e == "baseline") {
        emigrant_bytes_rank_step_ = exchange_bytes / steps / kThreads;
      }
      if (e != "baseline") {
        double lambda = 0.0;
        for (const double x : r.imbalance_series) lambda += x;
        put("lb.actions." + e, static_cast<double>(r.lb_actions), "count");
        put("lb.mb." + e, static_cast<double>(r.lb_bytes) / 1e6, "MB");
        put("lb.lambda_mean." + e,
            safe_div(lambda, static_cast<double>(r.imbalance_series.size())), "ratio");
      }
      if (e == "diffusion") {
        put("ft.checkpoint_mb_round",
            safe_div(static_cast<double>(r.checkpoint_bytes) / 1e6,
                     static_cast<double>(r.checkpoints)),
            "MB");
      }
      if (e == "async") {
        const auto counter = [&](const char* name) {
          const auto* c = registry.find_counter(name);
          return c != nullptr ? static_cast<double>(c->value()) : 0.0;
        };
        put("par.async.token_rounds", counter("async/token_rounds"), "count");
        put("par.async.overlap_deliveries", counter("async/overlap_deliveries"), "count");
      }
    }
    put("obs.overhead_frac." + e, safe_div(median(traced), median(dark)) - 1.0, "ratio");
  }
}

void Probes::serve() {
  const SpanRecorder::Scope span(spans_, "svc.serve");
  const ServeRun s = run_serve(w_);
  result_.attempted += w_.tenants.size();
  for (const std::string& f : failures({}, s)) {
    ++result_.failed;
    result_.failures.push_back(f);
  }
  double p50 = 0.0;
  double p95 = 0.0;
  for (const TenantRun& t : s.tenants) {
    p50 = std::max(p50, t.step_ms_p50);
    p95 = std::max(p95, t.step_ms_p95);
    tenant_cost_.push_back(t.cost_per_step);
  }
  put("svc.cycles", s.cycles, "count");
  put("svc.tenant_step_ms.p50", p50, "ms");
  put("svc.tenant_step_ms.p95", p95, "ms");
  put("ws.steal_frac",
      safe_div(static_cast<double>(s.pool_steals), static_cast<double>(s.pool_tasks)),
      "ratio");

  const SpanRecorder::Scope plan(spans_, "svc.plan_cycle");
  picprk::svc::Scheduler scheduler("greedy");
  picprk::svc::CycleInput in;
  in.workers = kThreads;
  for (std::size_t i = 0; i < w_.tenants.size(); ++i) {
    picprk::svc::JobLoad job;
    job.job = static_cast<int>(i);
    job.weight = w_.tenants[i].weight;
    job.cost_per_step = i < tenant_cost_.size() ? tenant_cost_[i] : 0.0;
    job.remaining = w_.tenants[i].base.steps;
    job.owner = static_cast<int>(i) % kThreads;
    in.jobs.push_back(job);
  }
  std::size_t planned = 0;
  const double t =
      median_seconds(201, [&] { planned += scheduler.plan_cycle(in).steps.size(); });
  if (planned == 0) probe_failures_.push_back("svc: plan_cycle granted nothing");
  put("svc.plan_cycle_us", t * 1e6, "us");
}

void Probes::pic_layer() {
  const SpanRecorder::Scope span(spans_, "pic");
  const pic::AlternatingColumnCharges charges;
  {
    const SpanRecorder::Scope s(spans_, "pic.init");
    const double t = median_seconds(3, [&] {
      const pic::Initializer init(probe_.base.init);
      particles_ = init.create_all();
    });
    put("pic.init_ns_pp", t / static_cast<double>(particles_.size()) * 1e9, "ns");
  }
  const auto n = static_cast<double>(particles_.size());
  {
    const SpanRecorder::Scope s(spans_, "pic.verify");
    pic::VerifyResult v;
    const double t = median_seconds(3, [&] {
      v = pic::verify_particles(std::span<const pic::Particle>(particles_), grid_, 0);
    });
    put("pic.verify_ns_pp", t / n * 1e9, "ns");
  }
  {
    const SpanRecorder::Scope s(spans_, "pic.move_aos");
    std::vector<pic::Particle> aos = particles_;
    pic::move_all(std::span<pic::Particle>(aos), grid_, charges, 1.0);  // warm-up
    const double t = median_seconds(5, [&] {
      pic::move_all(std::span<pic::Particle>(aos), grid_, charges, 1.0);
    });
    put("pic.move_aos_ns_pp", t / n * 1e9, "ns");
  }
  pic::ParticleSoA soa = pic::to_soa(particles_);
  pic::TileIndex tiles(pic::CellRegion{0, grid_.cells, 0, grid_.cells});
  {
    const SpanRecorder::Scope s(spans_, "pic.move_tiled");
    pic::move_all_tiled(soa, tiles, grid_, charges, 1.0);  // warm-up, builds the index
    const double t =
        median_seconds(5, [&] { pic::move_all_tiled(soa, tiles, grid_, charges, 1.0); });
    put("pic.move_tiled_ns_pp", t / n * 1e9, "ns");
  }
  {
    const SpanRecorder::Scope s(spans_, "pic.tile_rebuild");
    std::vector<double> t;
    for (int i = 0; i < 5; ++i) {
      tiles.mark_dirty();
      const Timer timer;
      tiles.rebuild(soa, grid_);
      t.push_back(timer.elapsed());
    }
    put("pic.tile_rebuild_ms", median(t) * 1e3, "ms");
  }
  {
    const SpanRecorder::Scope s(spans_, "pic.tile_revalidate");
    std::vector<double> t;
    for (int i = 0; i < 5; ++i) {
      tiles.rebuild(soa, grid_);
      pic::move_all_soa(soa, grid_, charges, 1.0);  // one hop; the index is now stale
      const Timer timer;
      tiles.revalidate_after_move(soa, grid_);
      t.push_back(timer.elapsed());
    }
    put("pic.tile_revalidate_us", median(t) * 1e6, "us");
  }
}

void Probes::pic_dram() {
  const SpanRecorder::Scope span(spans_, "pic.move_tiled.dram");
  // The same call on a particle store of at least 4x the last-level
  // cache: uniform at the workload's mean particles per cell (so tiles
  // hold as many rows as in the workload) on a grid grown to fit, built
  // column by column so the AoS staging copy never holds more than one.
  const std::uint64_t llc = options_.llc_bytes > 0 ? options_.llc_bytes : (256ull << 20);
  pic::InitParams params = probe_.base.init;
  params.total_particles = 4 * llc / sizeof(pic::Particle) + 1;
  const double per_cell = static_cast<double>(particles_.size()) /
                          static_cast<double>(grid_.cells * grid_.cells);
  auto cells = static_cast<std::int64_t>(
      std::ceil(std::sqrt(static_cast<double>(params.total_particles) / per_cell)));
  cells += cells % 2;
  params.grid = pic::GridSpec(cells, 1.0);
  params.distribution = pic::Uniform{};
  const pic::GridSpec& grid = params.grid;
  const pic::Initializer init(params);
  pic::ParticleSoA soa;
  soa.reserve(init.total());
  for (std::int64_t cx = 0; cx < cells; ++cx) {
    for (const pic::Particle& p : init.create_block(cx, cx + 1, 0, cells)) {
      soa.push_back(p);
    }
  }
  const pic::AlternatingColumnCharges charges;
  pic::TileIndex tiles(pic::CellRegion{0, cells, 0, cells});
  pic::move_all_tiled(soa, tiles, grid, charges, 1.0);
  const double t =
      median_seconds(3, [&] { pic::move_all_tiled(soa, tiles, grid, charges, 1.0); });
  const double ns_pp = t / static_cast<double>(soa.size()) * 1e9;
  std::cout << "pic.dram working_set_bytes=" << soa.size() * sizeof(pic::Particle)
            << " llc_bytes=" << llc << " particles=" << soa.size() << " cells=" << cells
            << '\n';
  put("pic.move_tiled_ns_pp.dram", ns_pp, "ns");
  put("pic.move_gbs_computed", kMoverBytesPerParticle / ns_pp, "GB/s");
  put("host.triad_gbs", options_.triad_gbs, "GB/s");
}

void Probes::comm_and_par() {
  const SpanRecorder::Scope span(spans_, "comm");
  const int parent = span.id();
  // Emigrant payload per rank per step as the traced baseline measured
  // it, spread evenly over the three peers (at least one particle each).
  const auto per_peer = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(emigrant_bytes_rank_step_ / sizeof(pic::Particle) /
                                    (kThreads - 1)));
  const pic::Initializer init(probe_.base.init);
  constexpr int kIters = 101;

  std::vector<double> a2a;
  std::vector<double> allreduce;
  std::vector<double> barrier;
  std::vector<double> pingpong;
  std::vector<double> exchange;
  const auto alltoallv_round = [&](comm::Comm& c, std::vector<double>* out) {
    const auto p = static_cast<std::size_t>(c.size());
    std::vector<std::uint64_t> counts(p, per_peer);
    counts[static_cast<std::size_t>(c.rank())] = 0;
    const std::vector<pic::Particle> send(per_peer * (p - 1));
    std::vector<pic::Particle> recv;
    std::vector<std::uint64_t> recv_counts;
    comm::BufferPool pool;
    for (int i = 0; i < kIters; ++i) {
      c.barrier();
      const Timer t;
      c.alltoallv(std::span<const pic::Particle>(send),
                  std::span<const std::uint64_t>(counts), recv, recv_counts, &pool);
      const double slowest = c.allreduce_value(t.elapsed(), [](double x, double y) {
        return std::max(x, y);
      });
      if (c.rank() == 0 && out != nullptr) out->push_back(slowest);
    }
  };

  comm::World world(kThreads);
  world.run([&](comm::Comm& c) {
    const bool root = c.rank() == 0;
    {
      const SpanRecorder::Scope s(spans_, "comm.alltoallv", c.rank(), parent);
      alltoallv_round(c, root ? &a2a : nullptr);
    }
    {
      const SpanRecorder::Scope s(spans_, "comm.allreduce", c.rank(), parent);
      std::vector<double> v(4, 1.0 + c.rank());
      for (int i = 0; i < kIters; ++i) {
        const Timer t;
        v = c.allreduce(std::span<const double>(v),
                        [](double x, double y) { return x + y; });
        if (root) allreduce.push_back(t.elapsed());
        v.assign(4, 1.0 + c.rank());
      }
    }
    {
      const SpanRecorder::Scope s(spans_, "comm.barrier", c.rank(), parent);
      for (int i = 0; i < kIters; ++i) {
        const Timer t;
        c.barrier();
        if (root) barrier.push_back(t.elapsed());
      }
    }
    {
      const SpanRecorder::Scope s(spans_, "comm.pingpong", c.rank(), parent);
      for (int i = 0; i < kIters; ++i) {
        if (c.rank() == 0) {
          const Timer t;
          c.send_value(static_cast<double>(i), 1, kPingTag);
          (void)c.recv_value<double>(1, kPingTag);
          pingpong.push_back(t.elapsed());
        } else if (c.rank() == 1) {
          const double v = c.recv_value<double>(0, kPingTag);
          c.send_value(v, 0, kPingTag);
        }
      }
      c.barrier();
    }
    {
      // One post-move exchange of the workload's own blocks, from the
      // initial state each time.
      const SpanRecorder::Scope s(spans_, "par.exchange", c.rank(), parent);
      const comm::Cart2D cart(c.size());
      const par::Decomposition2D decomp(grid_, cart);
      const pic::CellRegion block = decomp.block_of(c.rank());
      const std::vector<pic::Particle> pristine =
          init.create_block(block.x0, block.x1, block.y0, block.y1);
      const pic::AlternatingColumnCharges charges;
      par::ExchangeBuffers buffers;
      std::vector<pic::Particle> mine;
      for (int i = 0; i < 21; ++i) {
        mine = pristine;
        pic::move_all(std::span<pic::Particle>(mine), grid_, charges, 1.0);
        c.barrier();
        const Timer t;
        par::exchange_particles(c, decomp, mine, buffers);
        const double slowest = c.allreduce_value(t.elapsed(), [](double x, double y) {
          return std::max(x, y);
        });
        if (root) exchange.push_back(slowest);
      }
    }
  });
  const double a2a_s = median(a2a);
  put("comm.alltoallv_us", a2a_s * 1e6, "us");
  const auto a2a_bytes =
      static_cast<double>(per_peer * (kThreads - 1) * kThreads * sizeof(pic::Particle));
  put("comm.alltoallv_gbs", a2a_bytes / a2a_s * 1e-9, "GB/s");
  put("comm.allreduce_us", median(allreduce) * 1e6, "us");
  put("comm.barrier_us", median(barrier) * 1e6, "us");
  put("comm.pingpong_us", median(pingpong) * 1e6, "us");
  put("par.exchange_us", median(exchange) * 1e6, "us");

  // The same alltoallv over the reliable transport, under the workload's
  // message-fault schedule when it has one.
  const SpanRecorder::Scope rel(spans_, "comm.reliable");
  std::unique_ptr<picprk::ft::FaultInjector> injector;
  comm::WorldOptions opts;
  opts.reliable.enabled = true;
  if (!w_.fault_plan.empty()) {
    injector = std::make_unique<picprk::ft::FaultInjector>(
        picprk::ft::FaultPlan::parse(w_.fault_plan, w_.fault_seed));
    opts.fault_hook = injector.get();
  }
  std::vector<double> reliable;
  comm::World rworld(kThreads, opts);
  rworld.run([&](comm::Comm& c) {
    const SpanRecorder::Scope s(spans_, "comm.reliable.alltoallv", c.rank(), rel.id());
    alltoallv_round(c, c.rank() == 0 ? &reliable : nullptr);
  });
  const comm::TransportStats ts = rworld.transport_stats();
  put("comm.reliable.alltoallv_us", median(reliable) * 1e6, "us");
  put("comm.reliable.dup_dropped", static_cast<double>(ts.dup_dropped), "count");
  put("comm.reliable.retransmits", static_cast<double>(ts.retransmits), "count");
  put("comm.reliable.useful_frac",
      safe_div(static_cast<double>(ts.acked),
               static_cast<double>(ts.acked + ts.dup_dropped + ts.retransmits)),
      "ratio");
}

void Probes::lb_layer() {
  const SpanRecorder::Scope span(spans_, "lb");
  // Loads of the workload's initial particles: 16 VP blocks on 4
  // workers (blockwise owners, as vpr places them) for the placement
  // strategies; 4 x-slabs for the boundary strategies.
  const int parts = kThreads * kOverdecomposition;
  const comm::Cart2D vcart(parts);
  picprk::lb::PlacementInput placement;
  placement.step = w_.lb_every;
  placement.interval_steps = w_.lb_every;
  placement.workers = kThreads;
  for (int v = 0; v < parts; ++v) {
    picprk::lb::PartLoad part;
    part.part = v;
    part.owner = v * kThreads / parts;
    const auto [vx, vy] = vcart.coords_of(v);
    for (const auto& [dx, dy] : {std::pair{1, 0}, {-1, 0}, {0, 1}, {0, -1}}) {
      const int nx = (vx + dx + vcart.px()) % vcart.px();
      const int ny = (vy + dy + vcart.py()) % vcart.py();
      const int n = vcart.rank_of(nx, ny);
      if (n != v && std::find(part.neighbors.begin(), part.neighbors.end(), n) ==
                        part.neighbors.end()) {
        part.neighbors.push_back(n);
      }
    }
    placement.parts.push_back(part);
  }
  for (const pic::Particle& p : particles_) {
    const int vx = comm::block_owner(grid_.cells, vcart.px(), grid_.cell_of(p.x));
    const int vy = comm::block_owner(grid_.cells, vcart.py(), grid_.cell_of(p.y));
    placement.parts[static_cast<std::size_t>(vcart.rank_of(vx, vy))].load += 1.0;
  }
  picprk::lb::BoundsInput bounds;
  bounds.step = w_.lb_every;
  bounds.interval_steps = w_.lb_every;
  const pic::Initializer init(probe_.base.init);
  for (int r = 0; r <= kThreads; ++r) {
    bounds.bounds.push_back(
        r == kThreads ? grid_.cells : comm::block_range(grid_.cells, kThreads, r).lo);
  }
  for (int r = 0; r < kThreads; ++r) {
    double load = 0.0;
    for (std::int64_t cx = bounds.bounds[static_cast<std::size_t>(r)];
         cx < bounds.bounds[static_cast<std::size_t>(r) + 1]; ++cx) {
      load += static_cast<double>(init.column_total(cx));
    }
    bounds.loads.push_back(load);
  }
  for (const char* spec : {"diffusion", "rcb", "greedy", "refine", "steal", "adaptive"}) {
    const SpanRecorder::Scope s(spans_, std::string("lb.decide.") + spec);
    const std::unique_ptr<picprk::lb::Strategy> strategy =
        picprk::lb::make_strategy(spec);
    std::size_t decided = 0;
    const double t = median_seconds(101, [&] {
      decided += strategy->balances_placement()
                     ? strategy->rebalance_placement(placement).size()
                     : strategy->rebalance_bounds(bounds).size();
    });
    if (decided == 0) {
      probe_failures_.push_back(std::string("lb: ") + spec + " decided nothing");
    }
    put(std::string("lb.decide_us.") + spec, t * 1e6, "us");
  }
}

void Probes::vpr_layer() {
  const SpanRecorder::Scope span(spans_, "vpr");
  const par::RunConfig config = engine_config(w_, probe_, "ampi");
  const int vps = kThreads * kOverdecomposition;
  const auto shared = std::make_shared<const par::PicVpShared>(config, vps);
  picprk::vpr::RuntimeConfig rt;
  rt.workers = kThreads;
  rt.vps = vps;
  rt.lb_interval = w_.lb_every;
  rt.balancer = config.lb.strategy;
  picprk::vpr::Runtime runtime(rt, [shared](int vp) {
    return std::make_unique<par::PicVp>(vp, shared);
  });
  runtime.for_each_vp(
      [](picprk::vpr::VirtualProcessor& vp) { static_cast<par::PicVp&>(vp).populate(); });
  {
    const SpanRecorder::Scope s(spans_, "vpr.superstep");
    const std::uint32_t steps = std::min<std::uint32_t>(probe_.base.steps, 16);
    const double t = median_seconds(static_cast<int>(steps), [&] { runtime.run(1); });
    put("vpr.superstep_ms", t * 1e3, "ms");
  }
  const picprk::vpr::RuntimeStats& stats = runtime.stats();
  put("vpr.migrations", static_cast<double>(stats.migrations), "count");
  put("vpr.cross_worker_mb", static_cast<double>(stats.cross_worker_bytes) / 1e6, "MB");

  const SpanRecorder::Scope s(spans_, "vpr.pup");
  auto& vp = static_cast<par::PicVp&>(runtime.vp(0));
  std::vector<double> ms_per_mb;
  for (int i = 0; i < 5; ++i) {
    par::PicVp copy(0, shared);
    const Timer t;
    std::vector<std::byte> bytes = picprk::vpr::pup_pack(vp);
    const double mb = static_cast<double>(bytes.size()) / 1e6;
    picprk::vpr::pup_unpack(copy, std::move(bytes));
    ms_per_mb.push_back(safe_div(t.elapsed() * 1e3, mb));
  }
  put("vpr.pup_ms_per_mb", median(ms_per_mb), "ms/MB");
}

void Probes::ws_layer() {
  const SpanRecorder::Scope span(spans_, "ws.run_placed");
  picprk::ws::WorkStealingPool pool(kThreads);
  std::vector<int> owners;
  for (int i = 0; i < kThreads * kOverdecomposition; ++i) owners.push_back(i % kThreads);
  const double t = median_seconds(201, [&] {
    pool.run_placed(owners.size(), owners, [](std::size_t, int) {});
  });
  put("ws.run_placed_us", t * 1e6, "us");
}

void Probes::ft_layer() {
  const SpanRecorder::Scope span(spans_, "ft.checkpoint");
  // One rank's packed snapshot: a quarter of the workload's particles.
  const std::size_t n = particles_.size() / kThreads;
  std::vector<std::byte> snapshot(n * sizeof(pic::Particle));
  std::memcpy(snapshot.data(), particles_.data(), snapshot.size());
  picprk::ft::CheckpointStore store;
  std::vector<double> save;
  std::vector<double> load;
  for (std::uint32_t step = 0; step < 7; ++step) {
    // save/save_buddy take the snapshot by value: a caller that keeps its
    // own copy pays one copy per call, as the engines do.
    const Timer ts;
    store.save(0, step, snapshot);
    store.save_buddy(0, step, snapshot);
    save.push_back(ts.elapsed());
    const Timer tl;
    const auto loaded = store.load(0, step);
    load.push_back(tl.elapsed());
    if (!loaded || loaded->size() != snapshot.size()) {
      probe_failures_.push_back("ft: checkpoint load returned a different snapshot");
    }
  }
  put("ft.checkpoint_save_ms", median(save) * 1e3, "ms");
  put("ft.checkpoint_load_ms", median(load) * 1e3, "ms");
}

Result Probes::run() {
  {
    const SpanRecorder::Scope top(spans_, "traced." + w_.name);
    engines();
    serve();
    pic_layer();
    comm_and_par();
    lb_layer();
    vpr_layer();
    ws_layer();
    ft_layer();
    pic_dram();
  }
  // The probes' own sanity checks count as one more attempted item.
  ++result_.attempted;
  if (!probe_failures_.empty()) ++result_.failed;
  for (const std::string& f : probe_failures_) result_.failures.push_back("probe: " + f);

  picprk::util::JsonObject meta;
  meta.add("workload", w_.name)
      .add("seed", w_.seed)
      .add("host", options_.host)
      .add("build", build_facts());
  if (!spans_.write_chrome(options_.out_dir + "/trace.json", meta.to_string())) {
    std::cerr << "perfbench: cannot write the span trace\n";
  }
  picprk::util::JsonObject self_ms;
  for (const auto& [name, ms] : self_ms_by_name(spans_.spans())) self_ms.add(name, ms);
  picprk::util::JsonObject doc;
  doc.add("meta", meta)
      .add("span_self_ms", self_ms)
      .add("result", result_object(result_));
  write_report(options_, "layers.json", doc);
  return result_;
}

}  // namespace

Result measure_layers(const Workload& w, const Options& options) {
  Probes probes(w, options);
  return probes.run();
}

}  // namespace perfbench
