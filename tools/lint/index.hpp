// picprk-lint v2 analysis core, stage 2: the symbol index and the
// project-wide call graph.
//
// The indexer is a single forward pass over each file's token stream
// with a scope stack (namespace / class / function). It is a heuristic
// recognizer, not a C++ parser: it finds the constructs the rules need
// — function definitions (free, member, out-of-line member), class
// bodies with their data members, mutex declarations — and for every
// function body records the call sites, lock-acquisition sites and
// PICPRK_* annotations inside it. The call graph resolves call sites to
// indexed definitions by simple name (an over-approximation: a call may
// resolve to several same-named definitions; rules that walk the graph
// treat every resolution as reachable).
#pragma once

#include <cstddef>
#include <filesystem>
#include <string>
#include <unordered_map>
#include <vector>

#include "lint/lexer.hpp"

namespace picprk::lint {

struct SourceFile {
  std::filesystem::path path;
  std::string text;
  LexResult lx;

  bool is_header() const {
    return path.extension() == ".hpp" || path.extension() == ".h";
  }
  /// All comments that start or end on `line` (block comments count on
  /// both their first and last line).
  std::vector<const Comment*> comments_on_line(int line) const;
};

/// A call site inside a function body: `name(...)`, `recv<T>(...)`,
/// `obj.name(...)` or `obj->name(...)`.
struct CallSite {
  std::string name;
  std::string receiver;  ///< last identifier before . or ->; empty for free calls
  std::size_t tok = 0;   ///< token index of the callee identifier
  int line = 0;
  bool member = false;   ///< preceded by . or ->
};

/// A scoped lock-acquisition site: util::LockGuard (or std lock_guard /
/// scoped_lock / unique_lock) constructed over a mutex expression.
struct GuardSite {
  std::string arg;       ///< last identifier of the first constructor argument
  std::size_t tok = 0;   ///< token index of the guard type name
  int line = 0;
  int depth = 0;         ///< brace depth inside the body where it was declared
};

struct FunctionDef {
  std::string name;        ///< simple name ("pup", "rebalance_bounds", ...)
  std::string class_name;  ///< innermost class (inline or out-of-line); "" = free
  std::string qualified;   ///< ns::Class::name as spelled at the definition
  int file_index = -1;
  std::size_t name_tok = 0;
  std::size_t head_begin = 0;  ///< token index where the declaration starts
  std::size_t body_begin = 0;  ///< token index of '{'
  std::size_t body_end = 0;    ///< token index of the matching '}'
  int line = 0;
  bool is_hot = false;                       ///< carries PICPRK_HOT
  std::vector<std::string> attrs;            ///< all PICPRK_* attribute names seen
  std::vector<std::string> held_on_entry;    ///< PICPRK_REQUIRES/ACQUIRE arguments
  std::vector<CallSite> calls;
  std::vector<GuardSite> guards;
};

struct MemberVar {
  std::string name;
  int line = 0;
};

struct ClassDef {
  std::string name;
  std::string qualified;
  int file_index = -1;
  std::size_t body_begin = 0;
  std::size_t body_end = 0;
  int line = 0;
  /// A non-pure `void pup(...)` member declaration or definition.
  bool declares_pup = false;
  std::vector<MemberVar> members;
};

/// A mutex-typed declaration (util::Mutex / std::mutex member or global).
struct MutexDecl {
  std::string class_name;  ///< "" for namespace scope
  std::string member;
  int file_index = -1;
  int line = 0;
};

struct Index {
  std::vector<SourceFile> files;
  std::vector<FunctionDef> functions;
  std::vector<ClassDef> classes;
  std::vector<MutexDecl> mutexes;
  /// simple name -> indices into `functions`
  std::unordered_map<std::string, std::vector<std::size_t>> functions_by_name;

  const SourceFile& file_of(const FunctionDef& fn) const {
    return files[static_cast<std::size_t>(fn.file_index)];
  }
};

/// Lexes and indexes every file. Takes ownership of the file list.
Index build_index(std::vector<SourceFile> files);

/// Call edges resolved by simple name: callees[i] lists the indices of
/// every indexed definition any call in functions[i] may reach.
struct CallGraph {
  std::vector<std::vector<std::size_t>> callees;
};

CallGraph build_call_graph(const Index& index);

/// True for member-function names that collide with the std container /
/// string / smart-pointer vocabulary (`size`, `pop`, `insert`, ...).
/// Such call sites are ambiguous by construction under simple-name
/// resolution, so the call graph does not resolve them to project
/// definitions; graph-walking rules accept the precision over recall.
bool ambiguous_std_method(const std::string& name);

/// Token-level matcher: index of the token closing the bracket opened at
/// `open` ("(", "{", "[") in `toks`; npos when unbalanced.
std::size_t match_bracket(const std::vector<Token>& toks, std::size_t open);

}  // namespace picprk::lint
