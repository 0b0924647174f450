#include "svc/spec.hpp"

#include <algorithm>
#include <stdexcept>

#include "lb/registry.hpp"
#include "util/cli.hpp"

namespace picprk::svc {

namespace {

std::int64_t to_int(const std::string& job, const std::string& key,
                    const std::string& value) {
  try {
    return util::parse_int(value);
  } catch (const std::invalid_argument&) {
    throw std::invalid_argument("job " + job + ": " + key + "=" + value +
                                " is not an integer");
  }
}

double to_double(const std::string& job, const std::string& key,
                 const std::string& value) {
  try {
    return util::parse_double(value);
  } catch (const std::invalid_argument&) {
    throw std::invalid_argument("job " + job + ": " + key + "=" + value +
                                " is not a number");
  }
}

/// Strips leading/trailing spaces and tabs.
std::string trim(const std::string& s) {
  const auto b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return {};
  const auto e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

}  // namespace

JobSpec parse_job_spec(const std::string& text) {
  const lb::ParsedSpec parsed = lb::parse_spec(text);
  JobSpec spec;
  spec.name = parsed.name;
  par::RunConfig& run = spec.run;
  run.workers = 1;  // the job itself is the unit the server schedules
  run.overdecomposition = 4;
  run.lb.every = 8;
  run.sample_every = 8;
  run.steps = 64;

  std::int64_t cells = 64;
  std::int64_t particles = 20000;
  std::string dist = "uniform";
  double r = 0.99, alpha = 1.0, beta = 1.0;
  std::int64_t px0 = 0, px1 = 32, py0 = 0, py1 = 32;

  for (const auto& [key, value] : parsed.options) {
    if (key == "cells") {
      cells = to_int(spec.name, key, value);
    } else if (key == "particles") {
      particles = to_int(spec.name, key, value);
    } else if (key == "steps") {
      run.steps = static_cast<std::uint32_t>(to_int(spec.name, key, value));
    } else if (key == "dist") {
      dist = value;
    } else if (key == "r") {
      r = to_double(spec.name, key, value);
    } else if (key == "alpha") {
      alpha = to_double(spec.name, key, value);
    } else if (key == "beta") {
      beta = to_double(spec.name, key, value);
    } else if (key == "patch_x0") {
      px0 = to_int(spec.name, key, value);
    } else if (key == "patch_x1") {
      px1 = to_int(spec.name, key, value);
    } else if (key == "patch_y0") {
      py0 = to_int(spec.name, key, value);
    } else if (key == "patch_y1") {
      py1 = to_int(spec.name, key, value);
    } else if (key == "k") {
      run.init.k = static_cast<std::int32_t>(to_int(spec.name, key, value));
    } else if (key == "m") {
      run.init.m = static_cast<std::int32_t>(to_int(spec.name, key, value));
    } else if (key == "seed") {
      run.init.seed = static_cast<std::uint64_t>(to_int(spec.name, key, value));
    } else if (key == "rotate90") {
      run.init.rotate90 = to_int(spec.name, key, value) != 0;
    } else if (key == "d") {
      run.overdecomposition = static_cast<int>(to_int(spec.name, key, value));
    } else if (key == "balancer") {
      // '/'-encoded nested options: adaptive/inner=rcb -> adaptive:inner=rcb
      std::string lbspec = value;
      const auto slash = lbspec.find('/');
      if (slash != std::string::npos) {
        lbspec[slash] = ':';
        std::replace(lbspec.begin() + static_cast<std::ptrdiff_t>(slash),
                     lbspec.end(), '/', ',');
      }
      run.lb.strategy = lbspec;
    } else if (key == "lb_every") {
      run.lb.every = static_cast<std::uint32_t>(to_int(spec.name, key, value));
    } else if (key == "measured") {
      run.lb.measured = to_int(spec.name, key, value) != 0;
    } else if (key == "sample_every") {
      run.sample_every = static_cast<std::uint32_t>(to_int(spec.name, key, value));
    } else if (key == "weight") {
      spec.weight = to_double(spec.name, key, value);
    } else if (key == "kill_vp") {
      spec.kill_vp = static_cast<int>(to_int(spec.name, key, value));
    } else if (key == "kill_step") {
      spec.kill_step = static_cast<std::uint32_t>(to_int(spec.name, key, value));
    } else if (key == "checkpoint_every") {
      spec.checkpoint_every =
          static_cast<std::uint32_t>(to_int(spec.name, key, value));
    } else {
      throw std::invalid_argument(
          "job " + spec.name + ": unknown key '" + key +
          "' (cells particles steps dist r alpha beta patch_x0..patch_y1 k m "
          "seed rotate90 d balancer lb_every measured sample_every weight "
          "kill_vp kill_step checkpoint_every)");
    }
  }

  if (cells < 2) {
    throw std::invalid_argument("job " + spec.name + ": cells must be >= 2");
  }
  if (run.steps == 0) {
    throw std::invalid_argument("job " + spec.name + ": steps must be >= 1");
  }
  if (run.overdecomposition < 1) {
    throw std::invalid_argument("job " + spec.name + ": d must be >= 1");
  }
  if (spec.weight <= 0.0) {
    throw std::invalid_argument("job " + spec.name + ": weight must be > 0");
  }
  if (spec.kill_vp >= 0 && spec.checkpoint_every == 0) {
    throw std::invalid_argument(
        "job " + spec.name +
        ": kill_vp requires checkpoint_every > 0 — a killed VP can only "
        "be restored from the job's own checkpoint store");
  }
  if (spec.kill_vp >= run.overdecomposition) {
    throw std::invalid_argument("job " + spec.name + ": kill_vp " +
                                std::to_string(spec.kill_vp) +
                                " is outside the VP range [0, d)");
  }

  run.init.grid = pic::GridSpec(cells, 1.0);
  run.init.total_particles = static_cast<std::uint64_t>(particles);
  if (dist == "uniform") {
    run.init.distribution = pic::Uniform{};
  } else if (dist == "geometric") {
    run.init.distribution = pic::Geometric{r};
  } else if (dist == "sinusoidal") {
    run.init.distribution = pic::Sinusoidal{};
  } else if (dist == "linear") {
    run.init.distribution = pic::Linear{alpha, beta};
  } else if (dist == "patch") {
    run.init.distribution = pic::Patch{
        pic::CellRegion{px0, std::min(px1, cells), py0, std::min(py1, cells)}};
  } else {
    throw std::invalid_argument(
        "job " + spec.name + ": unknown dist '" + dist +
        "' (uniform|geometric|sinusoidal|linear|patch)");
  }
  return spec;
}

std::optional<Command> parse_command(const std::string& line) {
  const std::string text = trim(line);
  if (text.empty() || text[0] == '#') return std::nullopt;

  const auto space = text.find_first_of(" \t");
  const std::string verb = text.substr(0, space);
  const std::string rest =
      space == std::string::npos ? std::string() : trim(text.substr(space + 1));

  Command cmd;
  if (verb == "submit") {
    if (rest.empty()) {
      throw std::invalid_argument("submit needs a job spec: submit name:key=val,...");
    }
    cmd.kind = Command::Kind::kSubmit;
    cmd.spec = parse_job_spec(rest);
    return cmd;
  }
  if (verb == "cancel") {
    if (rest.empty()) throw std::invalid_argument("cancel needs a job name");
    cmd.kind = Command::Kind::kCancel;
    cmd.target = rest;
    return cmd;
  }
  if (verb == "drain") {
    if (!rest.empty()) throw std::invalid_argument("drain takes no argument");
    cmd.kind = Command::Kind::kDrain;
    return cmd;
  }
  throw std::invalid_argument("unknown serve command '" + verb +
                              "' (submit|cancel|drain)");
}

}  // namespace picprk::svc
