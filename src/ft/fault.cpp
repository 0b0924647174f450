#include "ft/fault.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <thread>
#include <tuple>

#include "comm/mailbox.hpp"
#include "util/assert.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

namespace picprk::ft {

namespace {

/// Upper bound on world size for the per-source sequence table.
constexpr int kMaxRanks = 4096;

bool is_step_fault(FaultKind kind) {
  return kind == FaultKind::Kill || kind == FaultKind::Stall;
}

FaultKind parse_kind(const std::string& name) {
  if (name == "kill") return FaultKind::Kill;
  if (name == "stall") return FaultKind::Stall;
  if (name == "drop") return FaultKind::Drop;
  if (name == "dup") return FaultKind::Duplicate;
  if (name == "delay") return FaultKind::Delay;
  throw std::invalid_argument("fault plan: unknown fault kind '" + name +
                              "' (kill|stall|drop|dup|delay)");
}

int parse_int(const std::string& key, const std::string& value) {
  try {
    const std::int64_t parsed = util::parse_int(value);
    if (parsed >= std::numeric_limits<int>::min() &&
        parsed <= std::numeric_limits<int>::max()) {
      return static_cast<int>(parsed);
    }
  } catch (const std::invalid_argument&) {
  }
  throw std::invalid_argument("fault plan: " + key + "= expects an integer, got '" +
                              value + "'");
}

double parse_prob(const std::string& value) {
  try {
    return util::parse_double(value);
  } catch (const std::invalid_argument&) {
    throw std::invalid_argument("fault plan: prob= expects a number, got '" + value +
                                "'");
  }
}

/// Which keys an entry spelled out explicitly — validation distinguishes
/// "defaulted" from "given a default-looking value".
struct SeenKeys {
  bool rank = false, step = false, ms = false, prob = false, src = false, dst = false;
};

/// Per-spec semantic validation; every rejection names the offending
/// construct so a CLI typo fails loudly at parse time instead of
/// silently producing a plan that never fires (mirrors the lb spec
/// parser's check_keys).
void validate_spec(const FaultSpec& spec, const SeenKeys& seen) {
  const std::string kind{to_string(spec.kind)};
  if (is_step_fault(spec.kind)) {
    if (!seen.rank) {
      throw std::invalid_argument("fault plan: " + kind + " requires rank=");
    }
    if (spec.rank < 0) {
      throw std::invalid_argument("fault plan: " + kind + " rank= must be >= 0, got " +
                                  std::to_string(spec.rank));
    }
    if (seen.prob) {
      throw std::invalid_argument("fault plan: " + kind +
                                  " fires at an exact (rank, step) and does not take "
                                  "prob= (message faults only)");
    }
    if (seen.src || seen.dst) {
      throw std::invalid_argument("fault plan: " + kind +
                                  " does not take src=/dst= (message faults only)");
    }
    if (spec.kind == FaultKind::Kill && seen.ms) {
      throw std::invalid_argument(
          "fault plan: kill does not take ms= (a killed rank never comes back; "
          "use stall for a timed hang)");
    }
  } else {
    if (!seen.prob) {
      throw std::invalid_argument("fault plan: " + kind + " requires prob=");
    }
    if (spec.probability < 0.0 || spec.probability > 1.0) {
      throw std::invalid_argument("fault plan: prob must be in [0, 1]");
    }
    if (seen.rank) {
      throw std::invalid_argument("fault plan: " + kind +
                                  " targets messages, not ranks — filter endpoints "
                                  "with src=/dst= instead of rank=");
    }
    if (seen.step) {
      throw std::invalid_argument("fault plan: " + kind +
                                  " does not take step= (message faults fire "
                                  "probabilistically per send)");
    }
    if (seen.ms && spec.kind != FaultKind::Delay) {
      throw std::invalid_argument("fault plan: " + kind +
                                  " does not take ms= (only stall and delay do)");
    }
    if (spec.kind == FaultKind::Delay && spec.ms < 0) {
      throw std::invalid_argument(
          "fault plan: delay ms= must be a finite number of milliseconds "
          "('inf' is only valid for stall)");
    }
    if (seen.src && spec.src < 0) {
      throw std::invalid_argument("fault plan: src= must be >= 0 (omit the key to "
                                  "match any sender), got " +
                                  std::to_string(spec.src));
    }
    if (seen.dst && spec.dst < 0) {
      throw std::invalid_argument("fault plan: dst= must be >= 0 (omit the key to "
                                  "match any receiver), got " +
                                  std::to_string(spec.dst));
    }
  }
}

}  // namespace

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::Kill: return "kill";
    case FaultKind::Stall: return "stall";
    case FaultKind::Drop: return "drop";
    case FaultKind::Duplicate: return "dup";
    case FaultKind::Delay: return "delay";
  }
  return "?";
}

FaultPlan FaultPlan::parse(const std::string& text, std::uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t end = std::min(text.find(';', pos), text.size());
    const std::string entry = text.substr(pos, end - pos);
    pos = end + 1;
    if (entry.empty()) continue;

    const std::size_t colon = entry.find(':');
    FaultSpec spec;
    spec.kind = parse_kind(entry.substr(0, colon));
    SeenKeys seen;
    std::size_t p = colon == std::string::npos ? entry.size() : colon + 1;
    while (p < entry.size()) {
      const std::size_t comma = std::min(entry.find(',', p), entry.size());
      const std::string kv = entry.substr(p, comma - p);
      p = comma + 1;
      if (kv.empty()) continue;
      const std::size_t eq = kv.find('=');
      if (eq == std::string::npos) {
        throw std::invalid_argument("fault plan: expected key=value, got '" + kv + "'");
      }
      const std::string key = kv.substr(0, eq);
      const std::string value = kv.substr(eq + 1);
      if (key == "rank") {
        spec.rank = parse_int(key, value);
        seen.rank = true;
      } else if (key == "step") {
        const int step = parse_int(key, value);
        if (step < 0) {
          throw std::invalid_argument("fault plan: step= must be >= 0, got " + value);
        }
        spec.step = static_cast<std::uint32_t>(step);
        seen.step = true;
      } else if (key == "ms") {
        spec.ms = value == "inf" ? -1 : parse_int(key, value);
        if (value != "inf" && spec.ms < 0) {
          throw std::invalid_argument("fault plan: ms= must be >= 0 or 'inf', got " +
                                      value);
        }
        seen.ms = true;
      } else if (key == "prob") {
        spec.probability = parse_prob(value);
        seen.prob = true;
      } else if (key == "src") {
        spec.src = parse_int(key, value);
        seen.src = true;
      } else if (key == "dst") {
        spec.dst = parse_int(key, value);
        seen.dst = true;
      } else {
        throw std::invalid_argument("fault plan: unknown key '" + key + "'");
      }
    }
    validate_spec(spec, seen);
    plan.specs.push_back(spec);
  }
  // Cross-spec checks: step faults are one-shot latches keyed by
  // (rank, step), so two targeting the same point would race for the
  // same firing slot — reject the plan instead of firing one silently.
  for (std::size_t i = 0; i < plan.specs.size(); ++i) {
    const FaultSpec& a = plan.specs[i];
    if (!is_step_fault(a.kind)) continue;
    for (std::size_t j = i + 1; j < plan.specs.size(); ++j) {
      const FaultSpec& b = plan.specs[j];
      if (!is_step_fault(b.kind) || a.rank != b.rank || a.step != b.step) continue;
      throw std::invalid_argument(
          std::string("fault plan: conflicting step faults — ") + to_string(a.kind) +
          " and " + to_string(b.kind) + " both target rank " + std::to_string(a.rank) +
          " at step " + std::to_string(a.step));
    }
  }
  return plan;
}

FaultInjector::FaultInjector(FaultPlan plan)
    : plan_(std::move(plan)),
      fired_(plan_.specs.size()),
      send_seq_(static_cast<std::size_t>(kMaxRanks), 0),
      dropped_(&metrics_.register_counter("ft/dropped")),
      duplicated_(&metrics_.register_counter("ft/duplicated")),
      delayed_(&metrics_.register_counter("ft/delayed")),
      kills_(&metrics_.register_counter("ft/kills")),
      stalls_(&metrics_.register_counter("ft/stalls")) {}

void FaultInjector::begin_step(int rank, std::uint32_t step,
                               const std::atomic<bool>* abort) {
  for (std::size_t i = 0; i < plan_.specs.size(); ++i) {
    const FaultSpec& spec = plan_.specs[i];
    if (!is_step_fault(spec.kind) || spec.rank != rank || spec.step != step) continue;
    if (fired_[i].exchange(true, std::memory_order_acq_rel)) continue;  // one-shot
    record(FaultEvent{spec.kind, rank, -1, step, 0});
    if (spec.kind == FaultKind::Stall) {
      stalls_->add();
      const bool forever = spec.ms <= 0;
      const auto until =
          std::chrono::steady_clock::now() + std::chrono::milliseconds(spec.ms);
      for (;;) {
        if (abort && abort->load(std::memory_order_acquire)) throw comm::WorldAborted{};
        if (!forever && std::chrono::steady_clock::now() >= until) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    } else {
      kills_->add();
      throw RankKilled(rank, step);
    }
  }
}

comm::FaultDecision FaultInjector::on_send(int src, int dst, int /*tag*/,
                                           std::size_t /*bytes*/) {
  PICPRK_EXPECTS(src >= 0 && src < kMaxRanks);
  // One sequence number per send, shared by all specs: each rank thread
  // is the sole writer of its slot, so the sequence — and therefore the
  // whole fault trace — is a pure function of the plan seed.
  const std::uint64_t seq = send_seq_[static_cast<std::size_t>(src)]++;
  for (std::size_t i = 0; i < plan_.specs.size(); ++i) {
    const FaultSpec& spec = plan_.specs[i];
    if (is_step_fault(spec.kind) || spec.probability <= 0.0) continue;
    if (spec.src >= 0 && spec.src != src) continue;
    if (spec.dst >= 0 && spec.dst != dst) continue;
    const util::CounterRng rng(plan_.seed, i, static_cast<std::uint64_t>(src));
    if (rng.double_at(seq) >= spec.probability) continue;
    record(FaultEvent{spec.kind, src, dst, 0, seq});
    comm::FaultDecision decision;
    switch (spec.kind) {
      case FaultKind::Drop:
        dropped_->add();
        decision.kind = comm::FaultDecision::Kind::Drop;
        break;
      case FaultKind::Duplicate:
        duplicated_->add();
        decision.kind = comm::FaultDecision::Kind::Duplicate;
        break;
      default:
        delayed_->add();
        decision.kind = comm::FaultDecision::Kind::Delay;
        decision.delay_ms = std::max(spec.ms, 1);
        break;
    }
    return decision;  // first matching spec wins
  }
  return comm::FaultDecision{};
}

void FaultInjector::record(FaultEvent event) {
  std::scoped_lock lock(trace_mutex_);
  trace_.push_back(event);
}

std::vector<FaultEvent> FaultInjector::trace() const {
  std::scoped_lock lock(trace_mutex_);
  std::vector<FaultEvent> out = trace_;
  std::sort(out.begin(), out.end(), [](const FaultEvent& a, const FaultEvent& b) {
    return std::tie(a.rank, a.seq, a.step, a.kind) <
           std::tie(b.rank, b.seq, b.step, b.kind);
  });
  return out;
}

}  // namespace picprk::ft
