// picprk-lint v2 analysis core, stage 3: the rules.
//
// Every rule runs over the symbol index (and, for the four
// graph-aware families, the project call graph) instead of raw text.
// The engine also owns the suppression grammar:
//
//   // picprk-lint: suppress(<rule>: <reason>)
//   // picprk-lint: collective-guard(<reason>)
//
// A suppress directive silences findings of <rule> on its own line or
// the line directly below it; a collective-guard justifies one
// conditional collective (on the guarded call or its branch condition).
// The grammar is audited by the lint itself: a directive with an
// unknown name, an unknown rule, an empty reason, or no finding to
// suppress is a violation of the `suppress` meta-rule.
#pragma once

#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "lint/index.hpp"

namespace picprk::lint {

struct Violation {
  std::filesystem::path file;
  int line = 0;
  std::string rule;
  std::string message;
};

struct RuleOptions {
  std::vector<std::filesystem::path> include_roots;
};

/// All rule names, the six ported families first:
/// hot obs lb soa pup tags headers collective lockorder determinism reach
/// (plus the implicit `suppress` audit, always on).
const std::set<std::string>& all_rules();

/// Runs the enabled rules, applies suppressions, audits the directive
/// grammar, and returns the surviving violations sorted by file/line.
std::vector<Violation> run_rules(const Index& index, const CallGraph& graph,
                                 const std::set<std::string>& enabled,
                                 const RuleOptions& opts);

}  // namespace picprk::lint
