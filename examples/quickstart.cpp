// Quickstart: the PIC PRK in ~60 lines.
//
// Sets up the canonical configuration — an L×L periodic mesh with
// alternating column charges, particles whose Eq.-3 charge makes them hop
// exactly (2k+1) cells per step — runs the simulation serially and with
// the baseline parallel engine, and verifies both against the closed
// form (Eqs. 5–6) and the id checksum.
//
//   ./quickstart --cells 200 --particles 100000 --steps 200 --ranks 4
#include <iostream>

#include "par/engine.hpp"
#include "pic/simulation.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace picprk;

  util::ArgParser args("quickstart", "serial + parallel PIC PRK in a nutshell");
  args.add_int("cells", 200, "mesh cells per dimension (even)");
  args.add_int("particles", 100000, "requested particle count");
  args.add_int("steps", 200, "time steps");
  args.add_int("ranks", 4, "threadcomm ranks for the parallel run");
  args.add_double("r", 0.99, "geometric distribution ratio (1 = uniform)");
  args.add_int("k", 0, "horizontal speed parameter: (2k+1) cells/step");
  args.add_int("m", 1, "vertical speed parameter: m cells/step");
  if (!args.parse(argc, argv)) return 0;

  pic::SimulationConfig config;
  config.init.grid = pic::GridSpec(args.get_int("cells"), 1.0);
  config.init.total_particles = static_cast<std::uint64_t>(args.get_int("particles"));
  config.init.distribution = pic::Geometric{args.get_double("r")};
  config.init.k = static_cast<std::int32_t>(args.get_int("k"));
  config.init.m = static_cast<std::int32_t>(args.get_int("m"));
  config.steps = static_cast<std::uint32_t>(args.get_int("steps"));

  // --- serial reference ---------------------------------------------------
  const auto serial = pic::run_serial(config);
  std::cout << "serial:   " << serial.final_particles << " particles, "
            << config.steps << " steps in " << serial.seconds << " s — "
            << (serial.ok() ? "VERIFIED" : "FAILED")
            << " (max position error " << serial.verification.max_position_error << ")\n";

  // --- parallel (threadcomm baseline engine) -------------------------------
  par::RunConfig run;
  run.impl = "baseline";
  run.ranks = static_cast<int>(args.get_int("ranks"));
  run.init = config.init;
  run.steps = config.steps;
  const par::DriverResult parallel = par::make_engine(run)->run().result;
  std::cout << "parallel: " << parallel.final_particles << " particles on "
            << args.get_int("ranks") << " ranks in " << parallel.seconds << " s — "
            << (parallel.ok ? "VERIFIED" : "FAILED") << " ("
            << parallel.particles_exchanged << " particles exchanged, max/rank "
            << parallel.max_particles_per_rank << ")\n";

  return serial.ok() && parallel.ok ? 0 : 1;
}
