#include "lint/rules.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <functional>
#include <map>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

namespace picprk::lint {

namespace fs = std::filesystem;

namespace {

bool is_ident(const Token& t) { return t.kind == TokKind::kIdentifier; }
bool is_punct(const Token& t, const char* s) {
  return t.kind == TokKind::kPunct && t.text == s;
}
bool is_word(const Token& t, const char* s) {
  return t.kind == TokKind::kIdentifier && t.text == s;
}

bool in_dir(const SourceFile& f, const char* dir) {
  return f.path.parent_path().filename() == dir;
}

// ---------------------------------------------------------------- hot/obs/soa

const char* const kHotBanned[] = {
    "new",      "delete",   "malloc",     "calloc",        "realloc",
    "fmod",     "throw",    "push_back",  "emplace_back",  "resize",
    "reserve",  "insert",   "to_string",  "ostringstream", "stringstream",
    "printf",   "string",
};

const char* const kObsBanned[] = {
    "register_counter",
    "register_gauge",
    "register_histogram",
};

void check_hot_family(const Index& idx, std::vector<Violation>& out) {
  for (const FunctionDef& fn : idx.functions) {
    if (!fn.is_hot) continue;
    const SourceFile& f = idx.file_of(fn);
    const auto& t = f.lx.tokens;
    for (std::size_t i = fn.body_begin; i <= fn.body_end && i < t.size(); ++i) {
      if (!is_ident(t[i])) continue;
      for (const char* banned : kHotBanned) {
        if (t[i].text == banned) {
          out.push_back({f.path, t[i].line, "hot",
                         std::string("banned token '") + banned +
                             "' in a PICPRK_HOT function body (hot paths are "
                             "allocation-, fmod- and throw-free)"});
        }
      }
      for (const char* banned : kObsBanned) {
        if (t[i].text == banned) {
          out.push_back({f.path, t[i].line, "obs",
                         std::string("'") + banned +
                             "' in a PICPRK_HOT function body — instrument "
                             "registration allocates and locks; register at "
                             "setup and record through the returned handle"});
        }
      }
      if (t[i].text == "to_aos" || t[i].text == "to_soa") {
        out.push_back({f.path, t[i].line, "soa",
                       std::string("'") + t[i].text +
                           "' in a PICPRK_HOT function body — layout "
                           "conversion is an O(n) copy; hot kernels operate "
                           "on the SoA store directly"});
      }
      // Loops whose header names the AoS record.
      if (is_word(t[i], "for") && i + 1 < t.size() && is_punct(t[i + 1], "(")) {
        const std::size_t close = match_bracket(t, i + 1);
        if (close == std::string::npos) continue;
        for (std::size_t k = i + 2; k < close; ++k) {
          if (is_word(t[k], "Particle")) {
            out.push_back({f.path, t[k].line, "soa",
                           "loop over AoS Particle records in a PICPRK_HOT "
                           "function body — the wire form is for communication "
                           "boundaries; compute kernels read SoA columns"});
          }
        }
      }
    }
  }
}

// --------------------------------------------------------- purity (lb + det)

const char* const kImpureWords[] = {
    "rand",          "srand",        "random_device", "mt19937",
    "getenv",        "steady_clock", "system_clock",  "high_resolution_clock",
    "clock_gettime", "time",         "thread",
};

/// Member-call name prefixes that mean "talks to the runtime".
const char* const kCommCallPrefixes[] = {
    "send",      "recv",      "probe", "iprobe",
    "allreduce", "alltoallv", "bcast", "barrier",
};

bool comm_call_name(const std::string& name) {
  for (const char* p : kCommCallPrefixes) {
    if (name.rfind(p, 0) == 0) return true;
  }
  return false;
}

/// First impure token inside a function body; empty Violation (line 0)
/// when the body is clean. `what` receives the offending token.
bool find_impure_token(const Index& idx, const FunctionDef& fn,
                       std::string& what, int& line) {
  const SourceFile& f = idx.file_of(fn);
  const auto& t = f.lx.tokens;
  for (std::size_t i = fn.body_begin; i <= fn.body_end && i < t.size(); ++i) {
    if (!is_ident(t[i])) continue;
    for (const char* banned : kImpureWords) {
      if (t[i].text == banned) {
        what = banned;
        line = t[i].line;
        return true;
      }
    }
    // comm:: qualification.
    if (is_word(t[i], "comm") && i + 1 < t.size() && is_punct(t[i + 1], "::")) {
      what = "comm::";
      line = t[i].line;
      return true;
    }
    // Member calls into the runtime: x.send(...), x->allreduce_max(...).
    if (i > 0 && (is_punct(t[i - 1], ".") || is_punct(t[i - 1], "->")) &&
        comm_call_name(t[i].text) && i + 1 < t.size() &&
        (is_punct(t[i + 1], "(") || is_punct(t[i + 1], "<"))) {
      what = t[i].text;
      line = t[i].line;
      return true;
    }
  }
  return false;
}

bool is_decision_fn(const FunctionDef& fn) {
  return fn.name == "rebalance_bounds" || fn.name == "rebalance_placement";
}

void check_lb(const Index& idx, std::vector<Violation>& out) {
  for (const FunctionDef& fn : idx.functions) {
    if (!is_decision_fn(fn)) continue;
    std::string what;
    int line = 0;
    if (find_impure_token(idx, fn, what, line)) {
      out.push_back({idx.file_of(fn).path, line, "lb",
                     "banned token '" + what + "' in a " + fn.name +
                         " body — decisions are pure functions of their "
                         "input; every rank must replay the identical plan"});
    }
  }
}

/// determinism: the lb purity contract made transitive. Walk the call
/// graph from every decision entry point and report any reachable
/// definition whose body reads clocks/RNG/environment or talks to the
/// runtime. Calls that resolve to no indexed definition (std:: math and
/// friends) are implicitly whitelisted.
void check_determinism(const Index& idx, const CallGraph& graph,
                       std::vector<Violation>& out) {
  const std::size_t n = idx.functions.size();
  std::vector<int> taint_line(n, 0);
  std::vector<std::string> taint_what(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::string what;
    int line = 0;
    if (find_impure_token(idx, idx.functions[i], what, line)) {
      taint_line[i] = line;
      taint_what[i] = what;
    }
  }
  for (std::size_t root = 0; root < n; ++root) {
    const FunctionDef& fn = idx.functions[root];
    if (!is_decision_fn(fn) && fn.name != "plan_degraded") continue;
    // BFS so the reported chain is a shortest path.
    std::vector<std::size_t> parent(n, static_cast<std::size_t>(-1));
    std::vector<bool> seen(n, false);
    std::vector<std::size_t> queue{root};
    seen[root] = true;
    for (std::size_t qi = 0; qi < queue.size(); ++qi) {
      const std::size_t cur = queue[qi];
      if (taint_line[cur] != 0 && cur != root) {
        std::string chain = idx.functions[cur].qualified;
        for (std::size_t p = parent[cur]; p != static_cast<std::size_t>(-1);
             p = parent[p]) {
          chain = idx.functions[p].qualified + " -> " + chain;
        }
        out.push_back(
            {idx.file_of(idx.functions[cur]).path, taint_line[cur], "determinism",
             "banned token '" + taint_what[cur] + "' is reachable from the " +
                 fn.name + " decision entry point (" + chain +
                 ") — transitive nondeterminism desynchronises the "
                 "replicated strategy state"});
        continue;  // do not walk past a tainted node; one report suffices
      }
      for (std::size_t callee : graph.callees[cur]) {
        if (seen[callee]) continue;
        seen[callee] = true;
        parent[callee] = cur;
        queue.push_back(callee);
      }
    }
  }
}

// ----------------------------------------------------------------- collective

const char* const kCollectives[] = {
    "barrier", "allreduce", "allreduce_value", "alltoallv",
    "bcast",   "reduce",
};

bool collective_name(const std::string& s) {
  for (const char* c : kCollectives) {
    if (s == c) return true;
  }
  return false;
}

/// A token range a branch controls, plus whether its condition diverges
/// across ranks.
struct CondRegion {
  std::size_t begin = 0, end = 0;  // token range (inclusive)
  int cond_line = 0;
  bool divergent = false;
};

bool rank_token(const std::string& s) {
  return s == "rank" || s == "rank_" || s == "world_rank" || s == "my_rank" ||
         s == "myrank" || s == "vrank" || s == "self_rank" || s == "lrank";
}

/// End of the statement-or-block that starts right after token `from`:
/// a braced block ends at its matching '}', a plain statement at the
/// first ';' at nesting level zero.
std::size_t region_end(const std::vector<Token>& t, std::size_t from,
                       std::size_t limit) {
  std::size_t i = from;
  while (i < limit && t[i].kind == TokKind::kDirective) ++i;
  if (i >= limit) return limit;
  if (is_punct(t[i], "{")) {
    const std::size_t close = match_bracket(t, i);
    return close == std::string::npos ? limit : close;
  }
  int nest = 0;
  for (; i < limit; ++i) {
    if (t[i].kind != TokKind::kPunct) continue;
    if (t[i].text == "(" || t[i].text == "{" || t[i].text == "[") ++nest;
    if (t[i].text == ")" || t[i].text == "}" || t[i].text == "]") --nest;
    if (nest == 0 && t[i].text == ";") return i;
    if (nest < 0) return i;
  }
  return limit;
}

/// Collects every rank-divergent conditional region in a function body.
std::vector<CondRegion> divergent_regions(const Index& idx, const FunctionDef& fn) {
  const auto& t = idx.file_of(fn).lx.tokens;
  std::vector<CondRegion> regions;
  bool last_if_divergent = false;
  int last_if_line = 0;
  for (std::size_t i = fn.body_begin; i <= fn.body_end && i < t.size(); ++i) {
    const Token& tok = t[i];
    if (!is_ident(tok)) continue;
    const bool is_if = tok.text == "if";
    const bool is_loop = tok.text == "while" || tok.text == "for";
    const bool is_switch = tok.text == "switch";
    if (tok.text == "else") {
      std::size_t j = i + 1;
      if (j < t.size() && is_word(t[j], "if")) continue;  // handled as `if`
      const std::size_t end = region_end(t, j, fn.body_end);
      if (last_if_divergent) {
        regions.push_back({j, end, last_if_line, true});
      }
      continue;
    }
    if (!is_if && !is_loop && !is_switch) continue;
    std::size_t j = i + 1;
    bool is_constexpr = false;
    if (is_if && j < t.size() && is_word(t[j], "constexpr")) {
      is_constexpr = true;
      ++j;
    }
    if (j >= t.size() || !is_punct(t[j], "(")) continue;
    const std::size_t cond_close = match_bracket(t, j);
    if (cond_close == std::string::npos) continue;
    bool divergent = false;
    if (!is_constexpr) {
      for (std::size_t k = j + 1; k < cond_close; ++k) {
        if (is_ident(t[k]) && rank_token(t[k].text)) {
          divergent = true;
          break;
        }
      }
    }
    if (is_if) {
      last_if_divergent = divergent;
      last_if_line = tok.line;
    }
    if (!divergent) continue;
    const std::size_t end = region_end(t, cond_close + 1, fn.body_end);
    regions.push_back({cond_close + 1, end, tok.line, true});
  }
  return regions;
}

/// collective: every comm collective must execute unconditionally with
/// respect to rank-local state within its function; a collective (or a
/// call that transitively performs one) under a rank-derived branch
/// needs an explicit `// picprk-lint: collective-guard(<reason>)`.
void check_collective(const Index& idx, const CallGraph& graph,
                      std::vector<Violation>& out) {
  const std::size_t n = idx.functions.size();
  // performs[i]: functions[i] executes a collective, directly or below.
  std::vector<bool> performs(n, false);
  for (std::size_t i = 0; i < n; ++i) {
    const FunctionDef& fn = idx.functions[i];
    if (collective_name(fn.name)) performs[i] = true;
    const auto& t = idx.file_of(fn).lx.tokens;
    for (const CallSite& cs : fn.calls) {
      if (!collective_name(cs.name)) continue;
      // std::reduce / std::gather etc. are not comm collectives.
      if (cs.tok >= 2 && is_punct(t[cs.tok - 1], "::") &&
          is_word(t[cs.tok - 2], "std")) {
        continue;
      }
      performs[i] = true;
      break;
    }
  }
  for (bool changed = true; changed;) {
    changed = false;
    for (std::size_t i = 0; i < n; ++i) {
      if (performs[i]) continue;
      for (std::size_t callee : graph.callees[i]) {
        if (performs[callee]) {
          performs[i] = changed = true;
          break;
        }
      }
    }
  }

  for (std::size_t i = 0; i < n; ++i) {
    const FunctionDef& fn = idx.functions[i];
    const SourceFile& f = idx.file_of(fn);
    if (in_dir(f, "comm")) continue;  // collectives are implemented there
    const std::vector<CondRegion> regions = divergent_regions(idx, fn);
    if (regions.empty()) continue;
    const auto& t = f.lx.tokens;
    for (const CallSite& cs : fn.calls) {
      bool direct = collective_name(cs.name);
      if (direct && cs.tok >= 2 && is_punct(t[cs.tok - 1], "::") &&
          is_word(t[cs.tok - 2], "std")) {
        direct = false;
      }
      bool transitive = false;
      if (!direct && !cs.member) {
        auto it = idx.functions_by_name.find(cs.name);
        if (it != idx.functions_by_name.end()) {
          for (std::size_t callee : it->second) {
            if (performs[callee]) {
              transitive = true;
              break;
            }
          }
        }
      }
      if (!direct && !transitive) continue;
      for (const CondRegion& r : regions) {
        if (cs.tok < r.begin || cs.tok > r.end) continue;
        out.push_back(
            {f.path, cs.line, "collective",
             std::string(direct ? "collective '" : "call '") + cs.name +
                 (direct ? "'" : "' (which performs a collective)") +
                 " executes under a rank-derived branch (condition at line " +
                 std::to_string(r.cond_line) +
                 ") — a rank that skips it deadlocks or desequences the "
                 "world; hoist it or justify with "
                 "// picprk-lint: collective-guard(<reason>)"});
        break;  // one report per call site
      }
    }
  }
}

// ------------------------------------------------------------------ lockorder

struct LockEdge {
  std::string from, to;
  fs::path file;
  int line = 0;
};

/// Resolves a mutex expression (its last identifier) to a stable node
/// name, preferring a declaration in the function's own class.
std::string resolve_mutex(const Index& idx, const FunctionDef& fn,
                          const std::string& name) {
  const MutexDecl* match = nullptr;
  int candidates = 0;
  for (const MutexDecl& m : idx.mutexes) {
    if (m.member != name) continue;
    ++candidates;
    if (!match) match = &m;
    if (!fn.class_name.empty() && m.class_name == fn.class_name) {
      return m.class_name + "::" + m.member;
    }
  }
  if (match && candidates == 1) {
    return match->class_name.empty() ? match->member
                                     : match->class_name + "::" + match->member;
  }
  return name;
}

/// lockorder: builds the static mutex-acquisition graph (edge A -> B
/// when B is acquired while A is held, directly or through a call) and
/// fails on cycles. Complements Clang TSA, which checks annotated
/// requirements but not a global order.
void check_lockorder(const Index& idx, const CallGraph& graph,
                     std::vector<Violation>& out) {
  const std::size_t n = idx.functions.size();
  // acquires[i]: mutex nodes functions[i] may acquire, transitively.
  std::vector<std::set<std::string>> acquires(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (const GuardSite& g : idx.functions[i].guards) {
      acquires[i].insert(resolve_mutex(idx, idx.functions[i], g.arg));
    }
    // Direct mutex.lock() calls on a named mutex.
    for (const CallSite& cs : idx.functions[i].calls) {
      if (cs.name == "lock" && cs.member && !cs.receiver.empty()) {
        for (const MutexDecl& m : idx.mutexes) {
          if (m.member == cs.receiver) {
            acquires[i].insert(resolve_mutex(idx, idx.functions[i], cs.receiver));
            break;
          }
        }
      }
    }
  }
  for (bool changed = true; changed;) {
    changed = false;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t callee : graph.callees[i]) {
        for (const std::string& m : acquires[callee]) {
          if (acquires[i].insert(m).second) changed = true;
        }
      }
    }
  }

  // Edges: from every held mutex to every mutex acquired in its scope.
  std::map<std::pair<std::string, std::string>, LockEdge> edges;
  auto add_edge = [&edges](const std::string& a, const std::string& b,
                           const fs::path& file, int line) {
    if (a == b) return;  // recursive re-acquisition is TSA's department
    edges.emplace(std::make_pair(a, b), LockEdge{a, b, file, line});
  };
  for (std::size_t i = 0; i < n; ++i) {
    const FunctionDef& fn = idx.functions[i];
    const SourceFile& f = idx.file_of(fn);
    const auto& t = f.lx.tokens;
    // Scope of each guard: from its site until brace depth drops below
    // the depth it was declared at.
    for (const GuardSite& g : fn.guards) {
      const std::string held = resolve_mutex(idx, fn, g.arg);
      int depth = 0;
      std::size_t scope_end = fn.body_end;
      for (std::size_t k = g.tok; k <= fn.body_end && k < t.size(); ++k) {
        if (is_punct(t[k], "{")) ++depth;
        if (is_punct(t[k], "}")) {
          --depth;
          if (depth < 0) {
            scope_end = k;
            break;
          }
        }
      }
      for (const GuardSite& g2 : fn.guards) {
        if (g2.tok > g.tok && g2.tok <= scope_end) {
          add_edge(held, resolve_mutex(idx, fn, g2.arg), f.path, g2.line);
        }
      }
      for (const CallSite& cs : fn.calls) {
        if (cs.tok <= g.tok || cs.tok > scope_end) continue;
        if (cs.member && ambiguous_std_method(cs.name)) continue;
        auto it = idx.functions_by_name.find(cs.name);
        if (it == idx.functions_by_name.end()) continue;
        for (std::size_t callee : it->second) {
          for (const std::string& m : acquires[callee]) {
            add_edge(held, m, f.path, cs.line);
          }
        }
      }
    }
    // PICPRK_REQUIRES / PICPRK_ACQUIRE on the signature: held on entry.
    for (const std::string& pre : fn.held_on_entry) {
      const std::string held = resolve_mutex(idx, fn, pre);
      for (const GuardSite& g : fn.guards) {
        add_edge(held, resolve_mutex(idx, fn, g.arg), f.path, g.line);
      }
      for (const CallSite& cs : fn.calls) {
        if (cs.member && ambiguous_std_method(cs.name)) continue;
        auto it = idx.functions_by_name.find(cs.name);
        if (it == idx.functions_by_name.end()) continue;
        for (std::size_t callee : it->second) {
          for (const std::string& m : acquires[callee]) {
            add_edge(held, m, f.path, cs.line);
          }
        }
      }
    }
  }

  // Cycle detection over the edge set (DFS, iterative coloring).
  std::map<std::string, std::vector<const LockEdge*>> adj;
  for (const auto& [key, e] : edges) adj[e.from].push_back(&e);
  std::set<std::string> done;
  std::set<std::string> reported;
  for (const auto& [start, unused] : adj) {
    (void)unused;
    if (done.count(start)) continue;
    std::vector<std::pair<std::string, const LockEdge*>> path;
    std::set<std::string> on_path;
    std::function<void(const std::string&)> dfs = [&](const std::string& node) {
      on_path.insert(node);
      for (const LockEdge* e : adj[node]) {
        if (on_path.count(e->to)) {
          // Found a cycle: from e->to ... node -> e->to.
          std::string cycle = e->to;
          std::string sig = e->to;
          bool in_cycle = false;
          for (const auto& [pnode, pedge] : path) {
            if (pnode == e->to) in_cycle = true;
            if (in_cycle && pedge) {
              cycle += " -> " + pedge->to;
              sig += "|" + pedge->to;
            }
          }
          cycle += " -> " + e->to;
          if (reported.insert(sig).second) {
            out.push_back(
                {e->file, e->line, "lockorder",
                 "mutex acquisition cycle: " + cycle +
                     " — two threads taking these locks in opposite order "
                     "deadlock; establish one global order (see "
                     "docs/STATIC_ANALYSIS.md)"});
          }
          continue;
        }
        if (done.count(e->to)) continue;
        path.emplace_back(e->to, e);
        dfs(e->to);
        path.pop_back();
      }
      on_path.erase(node);
      done.insert(node);
    };
    path.emplace_back(start, nullptr);
    dfs(start);
    path.pop_back();
  }
}

// ------------------------------------------------------------------------ pup

void check_pup(const Index& idx, std::vector<Violation>& out) {
  for (const ClassDef& cd : idx.classes) {
    // Inline pup definition inside this class body?
    const FunctionDef* pup_def = nullptr;
    for (const FunctionDef& fn : idx.functions) {
      if (fn.name != "pup" || fn.class_name != cd.name) continue;
      if (fn.file_index == cd.file_index && fn.name_tok > cd.body_begin &&
          fn.name_tok < cd.body_end) {
        pup_def = &fn;  // inline definition
        break;
      }
    }
    if (pup_def == nullptr && !cd.declares_pup) continue;
    if (pup_def == nullptr) {
      // Out-of-line: any indexed Class::pup definition.
      for (const FunctionDef& fn : idx.functions) {
        if (fn.name == "pup" && fn.class_name == cd.name) {
          pup_def = &fn;
          break;
        }
      }
    }
    const SourceFile& f = idx.files[static_cast<std::size_t>(cd.file_index)];
    if (pup_def == nullptr) {
      out.push_back({f.path, cd.line, "pup",
                     "class " + cd.name +
                         " declares pup() but no definition was found in the "
                         "scanned files"});
      continue;
    }
    const SourceFile& pf = idx.file_of(*pup_def);
    const auto& pt = pf.lx.tokens;
    std::unordered_set<std::string> pupped;
    for (std::size_t k = pup_def->body_begin; k <= pup_def->body_end && k < pt.size();
         ++k) {
      if (is_ident(pt[k])) pupped.insert(pt[k].text);
    }
    for (const MemberVar& m : cd.members) {
      if (pupped.count(m.name)) continue;
      bool transient = false;
      for (const Comment* c : f.comments_on_line(m.line)) {
        if (c->text.find("pup:transient") != std::string::npos) transient = true;
      }
      if (transient) continue;
      out.push_back({f.path, m.line, "pup",
                     cd.name + "::" + m.name +
                         " is neither serialized in pup() nor tagged "
                         "'// pup:transient' — a checkpoint restore would "
                         "silently lose it"});
    }
  }
}

// ----------------------------------------------------------------------- tags

bool is_tag_name(const std::string& s) {
  return s.size() > 4 && s[0] == 'k' &&
         std::isupper(static_cast<unsigned char>(s[1])) &&
         s.substr(s.size() - 3) == "Tag";
}

void check_tags(const Index& idx, std::vector<Violation>& out) {
  std::set<std::string> registry;
  registry.insert("kAnyTag");
  // Pass 1: k...Tag constants must live in comm/message.hpp.
  for (const SourceFile& f : idx.files) {
    const bool is_registry = f.path.filename() == "message.hpp";
    const auto& t = f.lx.tokens;
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (!is_word(t[i], "constexpr")) continue;
      std::size_t end = i + 1;
      while (end < t.size() && !is_punct(t[end], "=") && !is_punct(t[end], ";") &&
             t[end].kind != TokKind::kEof) {
        ++end;
      }
      std::string name;
      for (std::size_t k = end; k > i; --k) {
        if (is_ident(t[k - 1]) && !is_keyword(t[k - 1].text)) {
          name = t[k - 1].text;
          break;
        }
      }
      if (!is_tag_name(name)) continue;
      if (is_registry) {
        registry.insert(name);
      } else {
        out.push_back({f.path, t[i].line, "tags",
                       "tag constant " + name +
                           " defined outside the registry (comm/message.hpp) — "
                           "scattered tags are how subsystems collide"});
      }
    }
  }

  struct Method {
    const char* name;
    int tag_index;
    int min_args;
    bool templated;
  };
  const Method methods[] = {
      {"send", 2, 3, false},        {"send_value", 2, 3, false},
      {"send_buffer", 2, 3, false}, {"recv_into", 2, 3, false},
      {"probe", 1, 2, false},       {"iprobe", 1, 2, false},
      {"recv", 1, 2, true},         {"recv_value", 1, 2, true},
  };
  for (const SourceFile& f : idx.files) {
    if (in_dir(f, "comm")) continue;  // the runtime's own internals
    const auto& t = f.lx.tokens;
    for (std::size_t i = 1; i + 1 < t.size(); ++i) {
      if (!is_ident(t[i])) continue;
      if (!is_punct(t[i - 1], ".") && !is_punct(t[i - 1], "->")) continue;
      const Method* method = nullptr;
      for (const Method& m : methods) {
        if (t[i].text == m.name) {
          method = &m;
          break;
        }
      }
      if (method == nullptr) continue;
      std::size_t open = i + 1;
      if (is_punct(t[open], "<")) {
        if (!method->templated) continue;
        int angle = 0;
        std::size_t k = open;
        for (; k < t.size() && k < open + 64; ++k) {
          if (is_punct(t[k], "<")) ++angle;
          if (is_punct(t[k], ">") && --angle == 0) break;
          if (is_punct(t[k], ">>")) {
            angle -= 2;
            if (angle <= 0) break;
          }
        }
        if (k >= t.size() || k >= open + 64) continue;
        open = k + 1;
      } else if (method->templated) {
        // recv(...) without template args is some other API; still check.
      }
      if (open >= t.size() || !is_punct(t[open], "(")) continue;
      const std::size_t close = match_bracket(t, open);
      if (close == std::string::npos) continue;
      // Split arguments on top-level commas.
      std::vector<std::pair<std::size_t, std::size_t>> args;  // [begin, end)
      int paren = 0, brace = 0, bracket = 0, angle = 0;
      std::size_t start = open + 1;
      for (std::size_t k = open + 1; k < close; ++k) {
        if (t[k].kind != TokKind::kPunct) continue;
        if (t[k].text == "(") ++paren;
        if (t[k].text == ")") --paren;
        if (t[k].text == "{") ++brace;
        if (t[k].text == "}") --brace;
        if (t[k].text == "[") ++bracket;
        if (t[k].text == "]") --bracket;
        if (t[k].text == "<") ++angle;
        if (t[k].text == ">" && angle > 0) --angle;
        if (t[k].text == "," && paren == 0 && brace == 0 && bracket == 0 &&
            angle == 0) {
          args.emplace_back(start, k);
          start = k + 1;
        }
      }
      if (start < close || !args.empty()) args.emplace_back(start, close);
      if (static_cast<int>(args.size()) < method->min_args) continue;
      const auto [abegin, aend] = args[static_cast<std::size_t>(method->tag_index)];
      std::string name;
      for (std::size_t k = aend; k > abegin; --k) {
        if (is_ident(t[k - 1]) && !is_keyword(t[k - 1].text)) {
          name = t[k - 1].text;
          break;
        }
      }
      bool has_call = false;
      for (std::size_t k = abegin; k < aend; ++k) {
        if (is_punct(t[k], "(")) has_call = true;
      }
      if (is_tag_name(name) && !has_call) {
        if (registry.count(name) == 0) {
          out.push_back({f.path, t[i].line, "tags",
                         "tag " + name + " is not defined in comm/message.hpp"});
        }
        continue;
      }
      if (name == "kAnyTag" || name == "tag") continue;
      std::string arg_text;
      for (std::size_t k = abegin; k < aend; ++k) {
        if (!arg_text.empty()) arg_text += ' ';
        arg_text += t[k].text;
      }
      out.push_back({f.path, t[i].line, "tags",
                     "tag argument '" + arg_text +
                         "' is not a named k...Tag constant from the "
                         "comm/message.hpp registry"});
    }
  }
}

// -------------------------------------------------------------------- headers

struct StdRequirement {
  const char* token;   ///< identifier directly after std::
  const char* header;
};

const StdRequirement kStdTokens[] = {
    {"vector", "vector"},     {"deque", "deque"},
    {"string", "string"},     {"array", "array"},
    {"optional", "optional"}, {"span", "span"},
    {"function", "functional"}, {"atomic", "atomic"},
    {"mutex", "mutex"},       {"scoped_lock", "mutex"},
    {"unique_lock", "mutex"}, {"lock_guard", "mutex"},
    {"condition_variable", "condition_variable"},
    {"thread", "thread"},     {"chrono", "chrono"},
    {"byte", "cstddef"},      {"size_t", "cstddef"},
    {"uint8_t", "cstdint"},   {"uint16_t", "cstdint"},
    {"uint32_t", "cstdint"},  {"uint64_t", "cstdint"},
    {"int8_t", "cstdint"},    {"int16_t", "cstdint"},
    {"int32_t", "cstdint"},   {"int64_t", "cstdint"},
    {"runtime_error", "stdexcept"}, {"logic_error", "stdexcept"},
    {"out_of_range", "stdexcept"},  {"exception_ptr", "exception"},
    {"current_exception", "exception"}, {"rethrow_exception", "exception"},
    {"unordered_map", "unordered_map"}, {"map", "map"},
    {"set", "set"},           {"memcpy", "cstring"},
    {"memset", "cstring"},    {"shared_ptr", "memory"},
    {"unique_ptr", "memory"}, {"make_shared", "memory"},
    {"make_unique", "memory"}, {"ostringstream", "sstream"},
    {"istringstream", "sstream"}, {"stringstream", "sstream"},
};

/// Directive text: "#include <vector>" / "# include \"comm/comm.hpp\"".
bool parse_include(const std::string& text, std::string& payload, bool& angled) {
  std::size_t i = 0;
  while (i < text.size() && (text[i] == '#' || std::isspace(
                                 static_cast<unsigned char>(text[i])))) {
    ++i;
  }
  if (text.compare(i, 7, "include") != 0) return false;
  i += 7;
  while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i]))) ++i;
  if (i >= text.size()) return false;
  const char open = text[i];
  const char close = open == '<' ? '>' : (open == '"' ? '"' : '\0');
  if (close == '\0') return false;
  const std::size_t end = text.find(close, i + 1);
  if (end == std::string::npos) return false;
  payload = text.substr(i + 1, end - i - 1);
  angled = open == '<';
  return true;
}

void check_headers(const Index& idx, const RuleOptions& opts,
                   std::vector<Violation>& out) {
  for (const SourceFile& f : idx.files) {
    if (!f.is_header()) continue;
    const auto& t = f.lx.tokens;
    bool pragma_once = false;
    std::set<std::string> angle_includes;
    std::vector<std::pair<std::string, int>> project_includes;
    for (const Token& tok : t) {
      if (tok.kind != TokKind::kDirective) continue;
      if (tok.text.find("pragma") != std::string::npos &&
          tok.text.find("once") != std::string::npos) {
        pragma_once = true;
      }
      std::string payload;
      bool angled = false;
      if (parse_include(tok.text, payload, angled)) {
        if (angled) {
          angle_includes.insert(payload);
        } else {
          project_includes.emplace_back(payload, tok.line);
        }
      }
    }
    if (!pragma_once) {
      out.push_back({f.path, 1, "headers", "missing #pragma once"});
    }
    for (const auto& [inc, at] : project_includes) {
      bool found = fs::exists(f.path.parent_path() / inc);
      for (const auto& root : opts.include_roots) {
        if (found) break;
        found = fs::exists(root / inc);
      }
      if (!found) {
        out.push_back({f.path, at, "headers",
                       "project include \"" + inc + "\" does not resolve"});
      }
    }
    std::set<std::string> flagged;
    for (std::size_t i = 0; i + 2 < t.size(); ++i) {
      if (!is_word(t[i], "std") || !is_punct(t[i + 1], "::") ||
          !is_ident(t[i + 2])) {
        continue;
      }
      for (const StdRequirement& req : kStdTokens) {
        if (t[i + 2].text != req.token) continue;
        if (angle_includes.count(req.header)) continue;
        if (!flagged.insert(req.token).second) continue;
        out.push_back({f.path, t[i].line, "headers",
                       std::string("uses std::") + req.token +
                           " but does not include <" + req.header +
                           "> directly (include-what-you-spell)"});
      }
    }
  }
}

// ---------------------------------------------------------------------- reach

/// True when `file` lies under `root` (both compared lexically).
bool under_root(const fs::path& file, fs::path root) {
  root = root.lexically_normal();
  if (root.filename().empty()) root = root.parent_path();  // trailing '/'
  const fs::path f = file.lexically_normal();
  return std::mismatch(root.begin(), root.end(), f.begin(), f.end()).first ==
         root.end();
}

/// Identifiers in the replacement text of every `#define` in the input,
/// keyed by macro name.
std::unordered_map<std::string, std::vector<std::string>> macro_bodies(
    const Index& idx) {
  std::unordered_map<std::string, std::vector<std::string>> out;
  for (const SourceFile& f : idx.files) {
    for (const Token& tok : f.lx.tokens) {
      if (tok.kind != TokKind::kDirective) continue;
      const std::size_t at = tok.text.find("define");
      if (at == std::string::npos ||
          tok.text.find_first_not_of("# \t") != at) {
        continue;
      }
      const LexResult body = lex(tok.text.substr(at + 6));
      std::vector<std::string> names;
      for (const Token& b : body.tokens) {
        if (is_ident(b) && !is_keyword(b.text)) names.push_back(b.text);
      }
      if (names.empty()) continue;
      const std::string macro = names.front();
      names.erase(names.begin());
      out[macro] = std::move(names);
    }
  }
  return out;
}

/// Token mask per file: true inside an indexed function definition (its
/// head through its closing brace). What lies outside is declaration
/// text — class bodies, namespace-scope statements.
std::vector<std::vector<bool>> function_token_mask(const Index& idx) {
  std::vector<std::vector<bool>> mask(idx.files.size());
  for (std::size_t fi = 0; fi < idx.files.size(); ++fi) {
    mask[fi].assign(idx.files[fi].lx.tokens.size(), false);
  }
  for (const FunctionDef& fn : idx.functions) {
    auto& m = mask[static_cast<std::size_t>(fn.file_index)];
    for (std::size_t k = fn.head_begin; k <= fn.body_end && k < m.size(); ++k) {
      m[k] = true;
    }
  }
  return mask;
}

/// reach: every function defined under an include root — inline
/// functions and templates in headers included — must be reachable from
/// a `main` among the linted files. Edges are the call graph widened to
/// every mention of an indexed name in a reached definition (signature
/// and constructor initializers included), so address-taken functions,
/// constructors named by their type and same-named overrides count as
/// reached. A mentioned macro stands for the names in its replacement
/// text. Two uses outside any function body count as well:
///  * a `static_assert` at namespace or class scope reaches what its
///    condition names (it is evaluated whenever its file is compiled);
///  * once a member of class C is reached, a type named in C's
///    declaration text (a data member's type, a nested type's
///    declaration) has its constructors reached — C's constructor runs
///    them implicitly.
/// Destructors and operators are called implicitly and are never
/// reported. Returns false — the rule is inactive — when the input holds
/// no `main`, since reach is undefined.
bool check_reach(const Index& idx, const RuleOptions& opts,
                 std::vector<Violation>& out) {
  const std::size_t n = idx.functions.size();
  std::vector<bool> reached(n, false);
  std::vector<std::size_t> queue;
  for (std::size_t i = 0; i < n; ++i) {
    const FunctionDef& fn = idx.functions[i];
    if (fn.name == "main" && fn.class_name.empty()) {
      reached[i] = true;
      queue.push_back(i);
    }
  }
  if (queue.empty()) return false;

  const auto macros = macro_bodies(idx);
  std::set<std::string> macros_expanded;
  const std::function<void(const std::string&)> reach_name =
      [&](const std::string& name) {
        const auto fit = idx.functions_by_name.find(name);
        if (fit != idx.functions_by_name.end()) {
          for (const std::size_t callee : fit->second) {
            if (reached[callee]) continue;
            reached[callee] = true;
            queue.push_back(callee);
          }
        }
        const auto mit = macros.find(name);
        if (mit == macros.end() || !macros_expanded.insert(name).second) return;
        for (const std::string& inner : mit->second) reach_name(inner);
      };
  auto mention = [&](const std::vector<Token>& t, std::size_t begin,
                     std::size_t end) {
    for (std::size_t k = begin; k <= end && k < t.size(); ++k) {
      if (is_ident(t[k]) && !is_keyword(t[k].text)) reach_name(t[k].text);
    }
  };
  const auto in_function = function_token_mask(idx);
  for (std::size_t fi = 0; fi < idx.files.size(); ++fi) {
    const auto& t = idx.files[fi].lx.tokens;
    for (std::size_t k = 0; k + 1 < t.size(); ++k) {
      if (in_function[fi][k] || !is_word(t[k], "static_assert") ||
          !is_punct(t[k + 1], "(")) {
        continue;
      }
      const std::size_t close = match_bracket(t, k + 1);
      if (close != std::string::npos) mention(t, k + 2, close);
    }
  }

  std::unordered_map<std::string, std::vector<std::size_t>> classes_by_name;
  for (std::size_t c = 0; c < idx.classes.size(); ++c) {
    classes_by_name[idx.classes[c].name].push_back(c);
  }
  std::set<std::string> classes_expanded;
  auto reach_constructors_in = [&](const std::string& cls) {
    const auto cit = classes_by_name.find(cls);
    if (cit == classes_by_name.end() || !classes_expanded.insert(cls).second) return;
    for (const std::size_t c : cit->second) {
      const ClassDef& cd = idx.classes[c];
      const auto fi = static_cast<std::size_t>(cd.file_index);
      const auto& t = idx.files[fi].lx.tokens;
      for (std::size_t k = cd.body_begin; k <= cd.body_end && k < t.size(); ++k) {
        if (in_function[fi][k] || !is_ident(t[k]) || t[k].text == cls) continue;
        const auto fit = idx.functions_by_name.find(t[k].text);
        if (fit == idx.functions_by_name.end()) continue;
        for (const std::size_t ctor : fit->second) {
          if (reached[ctor] || idx.functions[ctor].class_name != t[k].text) continue;
          reached[ctor] = true;
          queue.push_back(ctor);
        }
      }
    }
  };

  for (std::size_t qi = 0; qi < queue.size(); ++qi) {
    const FunctionDef& fn = idx.functions[queue[qi]];
    mention(idx.file_of(fn).lx.tokens, fn.head_begin, fn.body_end);
    if (!fn.class_name.empty()) reach_constructors_in(fn.class_name);
  }

  for (std::size_t i = 0; i < n; ++i) {
    const FunctionDef& fn = idx.functions[i];
    if (reached[i]) continue;
    if (fn.name[0] == '~' || fn.name.rfind("operator", 0) == 0) continue;
    const SourceFile& f = idx.file_of(fn);
    const bool in_scope = std::any_of(
        opts.include_roots.begin(), opts.include_roots.end(),
        [&f](const fs::path& root) { return under_root(f.path, root); });
    if (!in_scope) continue;
    out.push_back({f.path, fn.line, "reach",
                   fn.qualified +
                       " is reached from no main() in the linted files — "
                       "delete it, or suppress with the reason it stays "
                       "(tests are not roots)"});
  }
  return true;
}

// ----------------------------------------------------- suppression directives

struct Directive {
  enum class Kind { kSuppress, kGuard, kMalformed } kind = Kind::kMalformed;
  std::string rule;    ///< suppress only
  std::string reason;
  std::string problem; ///< malformed only
  int file_index = -1;
  int line = 0;
  int end_line = 0;
  bool used = false;
};

std::string trimmed(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::vector<Directive> parse_directives(const Index& idx) {
  std::vector<Directive> out;
  for (std::size_t fi = 0; fi < idx.files.size(); ++fi) {
    for (const Comment& c : idx.files[fi].lx.comments) {
      // A directive opens its comment; prose that quotes the grammar
      // further in is documentation, not a directive.
      const std::size_t at = c.text.find("picprk-lint:");
      if (at == std::string::npos || at != c.text.find_first_not_of(" \t")) {
        continue;
      }
      Directive d;
      d.file_index = static_cast<int>(fi);
      d.line = c.line;
      d.end_line = c.end_line;
      std::string rest = trimmed(c.text.substr(at + 12));
      const std::size_t open = rest.find('(');
      const std::size_t close = rest.rfind(')');
      if (open == std::string::npos || close == std::string::npos ||
          close < open) {
        d.problem = "directive is not of the form <name>(<...>)";
        out.push_back(d);
        continue;
      }
      const std::string name = trimmed(rest.substr(0, open));
      const std::string body = trimmed(rest.substr(open + 1, close - open - 1));
      if (name == "suppress") {
        const std::size_t colon = body.find(':');
        if (colon == std::string::npos) {
          d.problem = "suppress needs `suppress(<rule>: <reason>)`";
          out.push_back(d);
          continue;
        }
        d.kind = Directive::Kind::kSuppress;
        d.rule = trimmed(body.substr(0, colon));
        d.reason = trimmed(body.substr(colon + 1));
        if (all_rules().count(d.rule) == 0) {
          d.kind = Directive::Kind::kMalformed;
          d.problem = "suppress names unknown rule '" + d.rule + "'";
        } else if (d.reason.empty()) {
          d.kind = Directive::Kind::kMalformed;
          d.problem = "suppress(" + d.rule + ") carries no reason";
        }
        out.push_back(d);
        continue;
      }
      if (name == "collective-guard") {
        d.kind = Directive::Kind::kGuard;
        d.reason = body;
        if (d.reason.empty()) {
          d.kind = Directive::Kind::kMalformed;
          d.problem = "collective-guard carries no reason";
        }
        out.push_back(d);
        continue;
      }
      d.problem = "unknown directive '" + name + "'";
      out.push_back(d);
    }
  }
  return out;
}

}  // namespace

const std::set<std::string>& all_rules() {
  static const std::set<std::string> rules = {
      "hot", "obs", "lb", "soa", "pup", "tags", "headers",
      "collective", "lockorder", "determinism", "reach"};
  return rules;
}

std::vector<Violation> run_rules(const Index& index, const CallGraph& graph,
                                 const std::set<std::string>& enabled,
                                 const RuleOptions& opts) {
  std::vector<Violation> raw;
  if (enabled.count("hot") || enabled.count("obs") || enabled.count("soa")) {
    std::vector<Violation> fam;
    check_hot_family(index, fam);
    for (auto& v : fam) {
      if (enabled.count(v.rule)) raw.push_back(std::move(v));
    }
  }
  if (enabled.count("lb")) check_lb(index, raw);
  if (enabled.count("pup")) check_pup(index, raw);
  if (enabled.count("tags")) check_tags(index, raw);
  if (enabled.count("headers")) check_headers(index, opts, raw);
  if (enabled.count("collective")) check_collective(index, graph, raw);
  if (enabled.count("lockorder")) check_lockorder(index, graph, raw);
  if (enabled.count("determinism")) check_determinism(index, graph, raw);
  // An input without a main() leaves reach undefined: the rule is then
  // inactive, and so is the audit of its suppressions.
  std::set<std::string> active = enabled;
  if (enabled.count("reach") && !check_reach(index, opts, raw)) {
    active.erase("reach");
  }

  // Suppressions: a finding is silenced by a well-formed suppress(<rule>:
  // <reason>) on its own line or the line directly above. The collective
  // rule honours collective-guard on the call line, the line above, or
  // the branch-condition line named in the message.
  std::vector<Directive> directives = parse_directives(index);
  std::unordered_map<std::string, std::size_t> file_to_index;
  for (std::size_t i = 0; i < index.files.size(); ++i) {
    file_to_index[index.files[i].path.string()] = i;
  }
  std::vector<Violation> kept;
  for (Violation& v : raw) {
    bool suppressed = false;
    const auto fit = file_to_index.find(v.file.string());
    if (fit != file_to_index.end()) {
      for (Directive& d : directives) {
        if (d.file_index != static_cast<int>(fit->second)) continue;
        if (d.kind == Directive::Kind::kSuppress && d.rule == v.rule &&
            (d.line == v.line || d.end_line == v.line || d.end_line == v.line - 1)) {
          d.used = true;
          suppressed = true;
        }
        if (d.kind == Directive::Kind::kGuard && v.rule == "collective") {
          // Extract the condition line from the message.
          int cond_line = 0;
          const std::size_t at = v.message.find("condition at line ");
          if (at != std::string::npos) {
            cond_line = std::atoi(v.message.c_str() + at + 18);
          }
          if (d.line == v.line || d.end_line == v.line ||
              d.end_line == v.line - 1 || d.line == cond_line ||
              d.end_line == cond_line || d.end_line == cond_line - 1) {
            d.used = true;
            suppressed = true;
          }
        }
      }
    }
    if (!suppressed) kept.push_back(std::move(v));
  }

  // Audit the directives themselves.
  for (const Directive& d : directives) {
    const fs::path& path = index.files[static_cast<std::size_t>(d.file_index)].path;
    if (d.kind == Directive::Kind::kMalformed) {
      kept.push_back({path, d.line, "suppress",
                      "malformed picprk-lint directive: " + d.problem +
                          " (grammar: docs/STATIC_ANALYSIS.md)"});
      continue;
    }
    if (d.kind == Directive::Kind::kSuppress && !d.used &&
        active.count(d.rule) != 0) {
      kept.push_back({path, d.line, "suppress",
                      "unused suppression for rule '" + d.rule +
                          "' — the finding it silenced is gone; delete the "
                          "directive"});
    }
  }

  std::sort(kept.begin(), kept.end(), [](const Violation& a, const Violation& b) {
    return std::tie(a.file, a.line, a.rule, a.message) <
           std::tie(b.file, b.line, b.rule, b.message);
  });
  kept.erase(std::unique(kept.begin(), kept.end(),
                         [](const Violation& a, const Violation& b) {
                           return a.file == b.file && a.line == b.line &&
                                  a.rule == b.rule && a.message == b.message;
                         }),
             kept.end());
  return kept;
}

}  // namespace picprk::lint
