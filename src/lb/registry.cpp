#include "lb/registry.hpp"

#include <functional>
#include <stdexcept>

#include "lb/adaptive.hpp"
#include "lb/bounds.hpp"
#include "lb/placement.hpp"
#include "lb/steal.hpp"
#include "util/cli.hpp"

namespace picprk::lb {

namespace {

/// Typed option access; every factory checks its keys against the
/// allowed set first, so a typo in an experiment sweep fails loudly
/// instead of silently running defaults.
double opt_double(const Options& opts, const std::string& key, double def) {
  const auto it = opts.find(key);
  if (it == opts.end()) return def;
  try {
    return util::parse_double(it->second);
  } catch (const std::invalid_argument&) {
    throw std::invalid_argument("lb: option " + key + " expects a number, got '" +
                                it->second + "'");
  }
}

std::int64_t opt_int(const Options& opts, const std::string& key, std::int64_t def) {
  const auto it = opts.find(key);
  if (it == opts.end()) return def;
  try {
    return util::parse_int(it->second);
  } catch (const std::invalid_argument&) {
    throw std::invalid_argument("lb: option " + key + " expects an integer, got '" +
                                it->second + "'");
  }
}

bool opt_bool(const Options& opts, const std::string& key, bool def) {
  const auto it = opts.find(key);
  if (it == opts.end()) return def;
  if (it->second == "1" || it->second == "true" || it->second == "on") return true;
  if (it->second == "0" || it->second == "false" || it->second == "off") return false;
  throw std::invalid_argument("lb: option " + key + " expects a boolean, got '" +
                              it->second + "'");
}

std::string opt_string(const Options& opts, const std::string& key,
                       const std::string& def) {
  const auto it = opts.find(key);
  return it == opts.end() ? def : it->second;
}

void check_keys(const std::string& name, const Options& opts,
                std::initializer_list<const char*> allowed) {
  for (const auto& [key, value] : opts) {
    (void)value;
    bool ok = false;
    for (const char* a : allowed) ok = ok || key == a;
    if (!ok) {
      std::string list;
      for (const char* a : allowed) list += (list.empty() ? "" : ", ") + std::string(a);
      throw std::invalid_argument("lb: strategy '" + name + "' has no option '" + key +
                                  "' (accepted: " + (list.empty() ? "none" : list) +
                                  ")");
    }
  }
}

struct Entry {
  Descriptor descriptor;
  std::function<std::unique_ptr<Strategy>(const Options&)> build;
};

std::unique_ptr<Strategy> build_adaptive(const Options& opts);

/// The builtin table. Sorted by name; registered_strategies() relies on
/// that for its listing order.
const std::vector<Entry>& entries() {
  static const std::vector<Entry> table = {
      {{"adaptive",
        "cost-model wrapper: rebalance only when predicted imbalance cost "
        "exceeds the measured cost of the previous LB event",
        true, true, true},
       build_adaptive},
      {{"compact",
        "locality-hinted refine: sheds border parts onto the neighbor-hosting "
        "worker (§V-B future-work remark)",
        false, true, true},
       [](const Options& opts) -> std::unique_ptr<Strategy> {
         check_keys("compact", opts, {"tolerance"});
         return std::make_unique<CompactStrategy>(opt_double(opts, "tolerance", 1.05));
       }},
      {{"diffusion",
        "§IV-B boundary diffusion à la Cybenko (bounds) / worker-ring "
        "diffusion (placement)",
        true, true, true},
       [](const Options& opts) -> std::unique_ptr<Strategy> {
         check_keys("diffusion", opts, {"threshold", "border", "two_phase"});
         return std::make_unique<DiffusionStrategy>(
             opt_double(opts, "threshold", 0.10), opt_int(opts, "border", 1),
             opt_bool(opts, "two_phase", false));
       }},
      {{"greedy",
        "Charm-style GreedyLB: heaviest part onto the least-loaded worker "
        "(the paper's choice)",
        false, true, true},
       [](const Options& opts) -> std::unique_ptr<Strategy> {
         check_keys("greedy", opts, {});
         return std::make_unique<GreedyStrategy>();
       }},
      {{"null", "no rebalancing: the statically mapped baseline", false, true, true},
       [](const Options& opts) -> std::unique_ptr<Strategy> {
         check_keys("null", opts, {});
         return std::make_unique<NullStrategy>();
       }},
      {{"rcb",
        "global recursive-coordinate-bisection repartition (Sauget & Latu "
        "style)",
        true, false, false},
       [](const Options& opts) -> std::unique_ptr<Strategy> {
         check_keys("rcb", opts, {"threshold", "two_phase"});
         return std::make_unique<RcbStrategy>(opt_double(opts, "threshold", 0.05),
                                              opt_bool(opts, "two_phase", false));
       }},
      {{"refine",
        "Charm-style RefineLB: move parts off overloaded workers until below "
        "tolerance × average",
        false, true, true},
       [](const Options& opts) -> std::unique_ptr<Strategy> {
         check_keys("refine", opts, {"tolerance"});
         return std::make_unique<RefineStrategy>(opt_double(opts, "tolerance", 1.05));
       }},
      {{"rotate",
        "pathological: every part to the next worker (prices migration with "
        "zero benefit)",
        false, true, true},
       [](const Options& opts) -> std::unique_ptr<Strategy> {
         check_keys("rotate", opts, {});
         return std::make_unique<RotateStrategy>();
       }},
      {{"steal",
        "VP-level work stealing: workers below the mean pull parts off the "
        "most loaded donor (steal-request/transfer replayed deterministically)",
        false, true, true},
       [](const Options& opts) -> std::unique_ptr<Strategy> {
         check_keys("steal", opts, {"tolerance"});
         return std::make_unique<StealStrategy>(opt_double(opts, "tolerance", 1.05));
       }},
  };
  return table;
}

const Entry& entry_of(const std::string& name) {
  for (const Entry& e : entries()) {
    if (e.descriptor.name == name) return e;
  }
  std::string known;
  for (const Entry& e : entries()) {
    known += (known.empty() ? "" : ", ") + e.descriptor.name;
  }
  throw std::invalid_argument("lb: unknown strategy '" + name + "' (registered: " +
                              known + ")");
}

std::unique_ptr<Strategy> build_adaptive(const Options& opts) {
  check_keys("adaptive", opts, {"inner", "hysteresis", "min_gain", "move_cost"});
  AdaptiveOptions options;
  options.hysteresis = opt_double(opts, "hysteresis", 1.5);
  options.min_gain = opt_double(opts, "min_gain", 0.02);
  options.move_cost = opt_double(opts, "move_cost", 3.0);
  const std::string inner = opt_string(opts, "inner", "");
  if (inner == "adaptive") {
    throw std::invalid_argument("lb: adaptive cannot wrap itself");
  }
  // The inner strategy covers whichever roles it implements; the other
  // role falls back to the canonical default (diffusion for bounds,
  // greedy for placement — the paper's §IV-B / §IV-C pairing).
  std::unique_ptr<Strategy> bounds_inner;
  std::unique_ptr<Strategy> placement_inner;
  if (!inner.empty()) {
    const Entry& e = entry_of(inner);
    if (e.descriptor.bounds) bounds_inner = e.build({});
    if (e.descriptor.placement) placement_inner = e.build({});
    if (!e.descriptor.bounds && !e.descriptor.placement) {
      throw std::invalid_argument("lb: adaptive inner '" + inner +
                                  "' balances nothing");
    }
  }
  if (bounds_inner == nullptr) bounds_inner = entry_of("diffusion").build({});
  if (placement_inner == nullptr) placement_inner = entry_of("greedy").build({});
  return std::make_unique<AdaptiveStrategy>(std::move(bounds_inner),
                                            std::move(placement_inner), options);
}

}  // namespace

ParsedSpec parse_spec(const std::string& spec) {
  ParsedSpec out;
  const std::size_t colon = spec.find(':');
  out.name = spec.substr(0, colon);
  if (out.name.empty()) {
    throw std::invalid_argument("lb: empty strategy name in spec '" + spec + "'");
  }
  if (colon == std::string::npos) return out;
  std::string rest = spec.substr(colon + 1);
  std::size_t pos = 0;
  while (pos < rest.size()) {
    std::size_t comma = rest.find(',', pos);
    if (comma == std::string::npos) comma = rest.size();
    const std::string pair = rest.substr(pos, comma - pos);
    const std::size_t eq = pair.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= pair.size()) {
      throw std::invalid_argument("lb: malformed option '" + pair + "' in spec '" +
                                  spec + "' (expected key=value)");
    }
    out.options[pair.substr(0, eq)] = pair.substr(eq + 1);
    pos = comma + 1;
  }
  return out;
}

std::vector<Descriptor> registered_strategies() {
  std::vector<Descriptor> out;
  out.reserve(entries().size());
  for (const Entry& e : entries()) out.push_back(e.descriptor);
  return out;
}

Descriptor descriptor_of(const std::string& name) {
  return entry_of(name).descriptor;
}

std::unique_ptr<Strategy> make_strategy(const std::string& spec) {
  const ParsedSpec parsed = parse_spec(spec);
  return entry_of(parsed.name).build(parsed.options);
}

}  // namespace picprk::lb
