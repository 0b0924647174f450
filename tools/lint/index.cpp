#include "lint/index.hpp"

#include <algorithm>
#include <set>

namespace picprk::lint {

namespace {

bool is_ident(const Token& t) { return t.kind == TokKind::kIdentifier; }
bool is_punct(const Token& t, const char* s) {
  return t.kind == TokKind::kPunct && t.text == s;
}
bool is_word(const Token& t, const char* s) {
  return t.kind == TokKind::kIdentifier && t.text == s;
}

bool is_guard_type(const std::string& s) {
  return s == "LockGuard" || s == "lock_guard" || s == "scoped_lock" ||
         s == "unique_lock";
}

bool is_attr_macro(const std::string& s) {
  return s.rfind("PICPRK_", 0) == 0;
}

/// Matches a template argument list opened at `open` (`<`). Fails (npos)
/// when the angle run looks like a comparison: hits a statement
/// boundary, an unbalanced closer, or runs too long.
std::size_t match_angle(const std::vector<Token>& toks, std::size_t open) {
  int angle = 0;
  int paren = 0;
  for (std::size_t i = open; i < toks.size() && i < open + 64; ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kPunct) continue;
    if (t.text == "(" || t.text == "[") ++paren;
    if (t.text == ")" || t.text == "]") {
      if (--paren < 0) return std::string::npos;
    }
    if (paren > 0) continue;
    if (t.text == "<") ++angle;
    if (t.text == "<<") return std::string::npos;
    if (t.text == ">") {
      if (--angle == 0) return i;
    }
    if (t.text == ">>") {
      angle -= 2;
      if (angle <= 0) return i;  // close of a nested template: treat as done
    }
    if (t.text == ";" || t.text == "{" || t.text == "}") return std::string::npos;
  }
  return std::string::npos;
}

/// Last identifier within [begin, end).
std::string last_identifier(const std::vector<Token>& toks, std::size_t begin,
                            std::size_t end) {
  for (std::size_t i = end; i > begin; --i) {
    if (is_ident(toks[i - 1]) && !is_keyword(toks[i - 1].text))
      return toks[i - 1].text;
  }
  return {};
}

struct Scanner {
  Index& out;
  int file_index;
  const std::vector<Token>& t;

  Scanner(Index& index, int fi)
      : out(index), file_index(fi),
        t(index.files[static_cast<std::size_t>(fi)].lx.tokens) {}

  // ------------------------------------------------------- scope walker

  static constexpr std::size_t kNoClass = static_cast<std::size_t>(-1);

  void scan_scope(std::size_t begin, std::size_t end, const std::string& ns,
                  const std::string& cls, std::size_t cls_idx) {
    std::size_t i = begin;
    while (i < end) {
      const Token& tok = t[i];
      if (tok.kind == TokKind::kDirective || tok.kind == TokKind::kEof) {
        ++i;
        continue;
      }
      if (is_word(tok, "namespace")) {
        i = scan_namespace(i, end, ns);
        continue;
      }
      if (is_word(tok, "enum")) {
        i = skip_enum(i, end);
        continue;
      }
      if (is_word(tok, "template")) {
        ++i;
        if (i < end && is_punct(t[i], "<")) {
          const std::size_t close = match_angle(t, i);
          if (close != std::string::npos) i = close + 1;
        }
        continue;
      }
      if (is_word(tok, "using") || is_word(tok, "typedef") ||
          is_word(tok, "friend")) {
        i = skip_statement(i, end);
        continue;
      }
      if (is_word(tok, "extern") && i + 2 < end &&
          t[i + 1].kind == TokKind::kString && is_punct(t[i + 2], "{")) {
        const std::size_t close = match_bracket(t, i + 2);
        if (close == std::string::npos) return;
        scan_scope(i + 3, close, ns, cls, cls_idx);
        i = close + 1;
        continue;
      }
      if ((is_word(tok, "public") || is_word(tok, "private") ||
           is_word(tok, "protected")) &&
          i + 1 < end && is_punct(t[i + 1], ":")) {
        i += 2;
        continue;
      }
      if (is_word(tok, "struct") || is_word(tok, "class") ||
          is_word(tok, "union")) {
        const std::size_t next = scan_class(i, end, ns, cls);
        if (next != i) {
          i = next;
          continue;
        }
        // Not a definition here (elaborated type in a declaration):
        // fall through to the statement scanner from the same position,
        // skipping the keyword so it cannot recurse.
        i = scan_statement(i + 1, end, ns, cls, cls_idx);
        continue;
      }
      if (is_punct(tok, ";")) {
        ++i;
        continue;
      }
      i = scan_statement(i, end, ns, cls, cls_idx);
    }
  }

  std::size_t scan_namespace(std::size_t i, std::size_t end, const std::string& ns) {
    std::size_t j = i + 1;
    std::string name;
    while (j < end && (is_ident(t[j]) || is_punct(t[j], "::"))) {
      if (is_ident(t[j])) {
        if (!name.empty()) name += "::";
        name += t[j].text;
      }
      ++j;
    }
    if (j < end && is_punct(t[j], "=")) return skip_statement(j, end);  // alias
    if (j >= end || !is_punct(t[j], "{")) return j + 1;
    const std::size_t close = match_bracket(t, j);
    if (close == std::string::npos) return end;
    std::string inner = ns;
    if (!name.empty()) inner = ns.empty() ? name : ns + "::" + name;
    scan_scope(j + 1, close, inner, "", kNoClass);
    return close + 1;
  }

  std::size_t skip_enum(std::size_t i, std::size_t end) {
    std::size_t j = i + 1;
    while (j < end && !is_punct(t[j], "{") && !is_punct(t[j], ";")) ++j;
    if (j < end && is_punct(t[j], "{")) {
      const std::size_t close = match_bracket(t, j);
      if (close == std::string::npos) return end;
      j = close + 1;
    }
    return skip_statement(j, end);
  }

  /// struct/class/union definition: records the ClassDef and recurses.
  /// Returns `i` unchanged when this is not a definition.
  std::size_t scan_class(std::size_t i, std::size_t end, const std::string& ns,
                         const std::string& cls) {
    std::size_t j = i + 1;
    // Skip attribute macros / [[...]] between keyword and name.
    while (j < end) {
      if (is_ident(t[j]) && is_attr_macro(t[j].text)) {
        ++j;
        if (j < end && is_punct(t[j], "(")) {
          const std::size_t c = match_bracket(t, j);
          if (c == std::string::npos) return i;
          j = c + 1;
        }
        continue;
      }
      if (is_punct(t[j], "[") && j + 1 < end && is_punct(t[j + 1], "[")) {
        while (j < end && !is_punct(t[j], "]")) ++j;
        ++j;
        if (j < end && is_punct(t[j], "]")) ++j;
        continue;
      }
      break;
    }
    if (j >= end || !is_ident(t[j]) || is_keyword(t[j].text)) return i;
    // Out-of-line nested class (`struct Outer::Inner {`): the last
    // component names it, the qualifier becomes part of its scope.
    std::string qualifier;
    while (j + 2 < end && is_punct(t[j + 1], "::") && is_ident(t[j + 2])) {
      qualifier += (qualifier.empty() ? "" : "::") + t[j].text;
      j += 2;
    }
    const std::size_t name_tok = j;
    const std::string name = t[j].text;
    ++j;
    if (j < end && is_punct(t[j], "<")) {  // explicit specialization
      const std::size_t c = match_angle(t, j);
      if (c == std::string::npos) return i;
      j = c + 1;
    }
    if (j < end && is_word(t[j], "final")) ++j;
    if (j < end && is_punct(t[j], ":")) {  // base clause
      while (j < end && !is_punct(t[j], "{") && !is_punct(t[j], ";")) ++j;
    }
    if (j >= end || !is_punct(t[j], "{")) return i;
    const std::size_t close = match_bracket(t, j);
    if (close == std::string::npos) return i;

    ClassDef cd;
    cd.name = name;
    std::string outer = cls.empty() ? ns : (ns.empty() ? cls : ns + "::" + cls);
    if (!qualifier.empty()) outer = outer.empty() ? qualifier : outer + "::" + qualifier;
    cd.qualified = outer.empty() ? name : outer + "::" + name;
    cd.file_index = file_index;
    cd.body_begin = j;
    cd.body_end = close;
    cd.line = t[name_tok].line;
    out.classes.push_back(cd);
    const std::size_t class_idx = out.classes.size() - 1;

    scan_scope(j + 1, close, outer, name, class_idx);
    return close + 1;
  }

  std::size_t skip_statement(std::size_t i, std::size_t end) {
    std::size_t j = i;
    while (j < end) {
      if (is_punct(t[j], ";")) return j + 1;
      if (is_punct(t[j], "{")) {
        const std::size_t c = match_bracket(t, j);
        if (c == std::string::npos) return end;
        j = c + 1;
        continue;
      }
      ++j;
    }
    return end;
  }

  // ----------------------------------------------- statement / function

  /// Scans one declaration-ish statement at namespace or class scope.
  /// Detects function definitions; otherwise records member variables /
  /// mutex declarations and skips to the terminator.
  std::size_t scan_statement(std::size_t i, std::size_t end, const std::string& ns,
                             const std::string& cls, std::size_t cls_idx) {
    std::size_t first_open = std::string::npos;  // first top-level ( ... )
    std::size_t first_close = std::string::npos;
    std::size_t last_open = std::string::npos;  // last top-level ( ... )
    std::size_t last_close = std::string::npos;
    std::size_t j = i;
    while (j < end) {
      const Token& tok = t[j];
      if (tok.kind == TokKind::kDirective) {
        ++j;
        continue;
      }
      if (is_punct(tok, ";")) {
        handle_plain_statement(i, j, cls, cls_idx, last_open, last_close);
        return j + 1;
      }
      if (is_punct(tok, "(")) {
        const std::size_t c = match_bracket(t, j);
        if (c == std::string::npos) return end;
        if (first_open == std::string::npos) {
          first_open = j;
          first_close = c;
        }
        last_open = j;
        last_close = c;
        j = c + 1;
        continue;
      }
      if (is_punct(tok, "=")) {
        // Initializer: no function body can follow at this statement's
        // top level (covers `= default`, `= delete`, `= 0`). What
        // precedes the '=' may still be a member variable declaration —
        // but never a function declaration (pure-virtual pup() is an
        // interface, not state).
        if (last_open == std::string::npos) {
          handle_plain_statement(i, j, cls, cls_idx, last_open, last_close);
        }
        return skip_statement(j, end);
      }
      if (is_punct(tok, "{")) {
        const std::size_t close = match_bracket(t, j);
        if (close == std::string::npos) return end;
        // The first parameter list names a constructor whose initializer
        // list holds more paren groups; the last one names a function
        // whose return type or attributes hold some.
        if (first_open != last_open &&
            try_function(i, first_open, first_close, j, close, ns, cls)) {
          return close + 1;
        }
        if (last_open != std::string::npos &&
            try_function(i, last_open, last_close, j, close, ns, cls)) {
          return close + 1;
        }
        // Braced initializer or similar: skip and keep scanning the
        // statement for its terminator.
        j = close + 1;
        continue;
      }
      ++j;
    }
    return end;
  }

  /// Statement that ended in ';' with no body: member variables, mutex
  /// declarations, and non-pure pup() declarations.
  void handle_plain_statement(std::size_t begin, std::size_t semi,
                              const std::string& cls, std::size_t cls_idx,
                              std::size_t last_open, std::size_t last_close) {
    (void)last_close;
    const bool is_function_decl = last_open != std::string::npos &&
                                  last_open > begin && is_ident(t[last_open - 1]);
    if (is_function_decl && cls_idx != kNoClass) {
      // `void pup(...)` declared but possibly defined out-of-line; a
      // pure-virtual `= 0` never reaches here (the '=' branch skips).
      if (is_word(t[last_open - 1], "pup") && last_open >= 2 &&
          is_word(t[last_open - 2], "void")) {
        out.classes[cls_idx].declares_pup = true;
      }
      return;
    }
    if (is_function_decl) return;
    if (last_open != std::string::npos) return;  // function pointer etc.
    // Member variable: last identifier before the terminator, with any
    // initializer or array extent stripped.
    std::size_t decl_end = semi;
    for (std::size_t k = begin; k < semi; ++k) {
      if (is_punct(t[k], "=") || is_punct(t[k], "{") || is_punct(t[k], "[")) {
        decl_end = k;
        break;
      }
    }
    if (decl_end <= begin) return;
    // Skip non-member statements (the v1 keyword list).
    static const std::set<std::string> kSkip = {
        "using", "typedef", "friend",   "static", "constexpr",
        "enum",  "template", "struct",  "class",  "union",
        "public", "private", "protected"};
    if (is_ident(t[begin]) && kSkip.count(t[begin].text) != 0) return;
    const std::string name = last_identifier(t, begin, decl_end);
    if (name.empty()) return;
    // A lone identifier cannot be both type and name.
    std::size_t toks = 0;
    for (std::size_t k = begin; k < decl_end; ++k) ++toks;
    if (toks < 2) return;
    int line = t[begin].line;
    for (std::size_t k = decl_end; k > begin; --k) {
      if (is_ident(t[k - 1])) {
        line = t[k - 1].line;
        break;
      }
    }
    if (cls_idx != kNoClass) out.classes[cls_idx].members.push_back({name, line});
    // Mutex declaration (member or namespace scope).
    bool mutexish = false;
    for (std::size_t k = begin; k < decl_end; ++k) {
      if (is_word(t[k], "Mutex")) mutexish = true;
      if (is_word(t[k], "mutex") && k >= 2 && is_word(t[k - 2], "std")) {
        mutexish = true;
      }
    }
    if (mutexish) out.mutexes.push_back({cls, name, file_index, line});
  }

  /// Decides whether `params_open..body_open` is a function definition
  /// head; if so, records the FunctionDef (scanning its body) and
  /// returns true.
  bool try_function(std::size_t stmt_begin, std::size_t params_open,
                    std::size_t params_close, std::size_t body_open,
                    std::size_t body_close, const std::string& ns,
                    const std::string& cls) {
    // The last top-level paren group may belong to a trailing annotation
    // macro (`void f() PICPRK_REQUIRES(mutex_) { ... }`): rewind to the
    // real parameter list and let check_qualifiers consume the macro.
    while (params_open > stmt_begin + 1 && is_ident(t[params_open - 1]) &&
           is_attr_macro(t[params_open - 1].text)) {
      std::size_t k = params_open - 1;  // the macro name
      while (k > stmt_begin + 1 &&
             (is_word(t[k - 1], "const") || is_word(t[k - 1], "noexcept") ||
              is_word(t[k - 1], "override") || is_word(t[k - 1], "final") ||
              is_punct(t[k - 1], "&") || is_punct(t[k - 1], "&&"))) {
        --k;
      }
      if (k <= stmt_begin || !is_punct(t[k - 1], ")")) return false;
      int depth = 0;
      std::size_t p = k - 1;
      while (true) {
        if (is_punct(t[p], ")")) {
          ++depth;
        } else if (is_punct(t[p], "(") && --depth == 0) {
          break;
        }
        if (p == stmt_begin) return false;
        --p;
      }
      params_open = p;
      params_close = k - 1;
    }
    // Name: identifier (or operator / destructor) directly before '('.
    if (params_open == stmt_begin) return false;
    std::size_t name_tok = params_open - 1;
    std::string name;
    if (is_ident(t[name_tok]) && !is_keyword(t[name_tok].text)) {
      name = t[name_tok].text;
    } else if (is_ident(t[name_tok]) && t[name_tok].text == "operator") {
      name = "operator()";
    } else {
      // operator symbols: walk back at most 2 punct tokens to `operator`.
      std::size_t k = name_tok;
      std::string symbols;
      while (k > stmt_begin && t[k].kind == TokKind::kPunct &&
             name_tok - k < 2) {
        symbols = t[k].text + symbols;
        --k;
      }
      if (k >= stmt_begin && is_word(t[k], "operator")) {
        name = "operator" + symbols;
        name_tok = k;
      } else {
        return false;
      }
    }
    // Destructor / qualified name chain.
    std::string qualifier;
    std::size_t q = name_tok;
    if (q > stmt_begin && is_punct(t[q - 1], "~")) {
      name = "~" + name;
      --q;
    }
    std::vector<std::string> quals;
    while (q >= stmt_begin + 2 && is_punct(t[q - 1], "::") && is_ident(t[q - 2])) {
      quals.insert(quals.begin(), t[q - 2].text);
      q -= 2;
      // skip template args on the qualifier (Foo<T>::bar)
      if (q > stmt_begin && is_punct(t[q - 1], ">")) break;
    }
    for (const auto& part : quals) {
      if (!qualifier.empty()) qualifier += "::";
      qualifier += part;
    }

    // Everything between ')' and '{' must be qualifier-ish.
    std::vector<std::string> attrs;
    std::vector<std::string> held;
    bool ok = check_qualifiers(params_close + 1, body_open, attrs, held);
    if (!ok) return false;

    FunctionDef fn;
    fn.name = name;
    fn.class_name = !quals.empty() ? quals.back() : cls;
    std::string prefix = cls.empty() ? ns : (ns.empty() ? cls : ns + "::" + cls);
    if (!qualifier.empty())
      prefix = prefix.empty() ? qualifier : prefix + "::" + qualifier;
    fn.qualified = prefix.empty() ? name : prefix + "::" + name;
    fn.file_index = file_index;
    fn.name_tok = name_tok;
    fn.head_begin = stmt_begin;
    fn.body_begin = body_open;
    fn.body_end = body_close;
    fn.line = t[name_tok].line;
    // Attributes before the name (PICPRK_HOT precedes the return type).
    for (std::size_t k = stmt_begin; k < name_tok; ++k) {
      if (is_ident(t[k]) && is_attr_macro(t[k].text)) attrs.push_back(t[k].text);
    }
    fn.attrs = attrs;
    fn.held_on_entry = held;
    for (const auto& a : attrs) {
      if (a == "PICPRK_HOT") fn.is_hot = true;
    }
    scan_body(fn);
    out.functions.push_back(std::move(fn));
    return true;
  }

  /// True when every token in [begin, end) may legally sit between a
  /// parameter list and a function body. Collects PICPRK_* attributes
  /// and the mutex arguments of PICPRK_REQUIRES / PICPRK_ACQUIRE.
  bool check_qualifiers(std::size_t begin, std::size_t end,
                        std::vector<std::string>& attrs,
                        std::vector<std::string>& held) {
    std::size_t k = begin;
    while (k < end) {
      const Token& tok = t[k];
      if (is_punct(tok, ":")) return true;   // constructor init list
      if (is_punct(tok, "->")) return true;  // trailing return type
      if (is_word(tok, "const") || is_word(tok, "noexcept") ||
          is_word(tok, "override") || is_word(tok, "final") ||
          is_word(tok, "try") || is_word(tok, "mutable") ||
          is_word(tok, "requires") || is_punct(tok, "&") ||
          is_punct(tok, "&&")) {
        ++k;
        if (k < end && is_punct(t[k], "(")) {  // noexcept(...) / requires(...)
          const std::size_t c = match_bracket(t, k);
          if (c == std::string::npos || c >= end) return false;
          k = c + 1;
        }
        continue;
      }
      if (is_ident(tok) && is_attr_macro(tok.text)) {
        const std::string attr = tok.text;
        attrs.push_back(attr);
        ++k;
        if (k < end && is_punct(t[k], "(")) {
          const std::size_t c = match_bracket(t, k);
          if (c == std::string::npos || c >= end) return false;
          if (attr == "PICPRK_REQUIRES" || attr == "PICPRK_ACQUIRE") {
            for (std::size_t a = k + 1; a < c; ++a) {
              if (is_ident(t[a]) && !is_keyword(t[a].text)) held.push_back(t[a].text);
            }
          }
          k = c + 1;
        }
        continue;
      }
      if (is_punct(tok, "[") && k + 1 < end && is_punct(t[k + 1], "[")) {
        while (k < end && !is_punct(t[k], "]")) ++k;
        ++k;
        if (k < end && is_punct(t[k], "]")) ++k;
        continue;
      }
      return false;
    }
    return true;
  }

  // --------------------------------------------------------- body scan

  void scan_body(FunctionDef& fn) {
    int depth = 0;
    for (std::size_t i = fn.body_begin; i <= fn.body_end && i < t.size(); ++i) {
      const Token& tok = t[i];
      if (is_punct(tok, "{")) ++depth;
      if (is_punct(tok, "}")) --depth;
      if (!is_ident(tok)) continue;
      if (is_keyword(tok.text)) continue;
      // Guard declaration: LockGuard [<...>] var ( args ) / { args }.
      if (is_guard_type(tok.text)) {
        std::size_t j = i + 1;
        if (j < t.size() && is_punct(t[j], "<")) {
          const std::size_t c = match_angle(t, j);
          if (c != std::string::npos) j = c + 1;
        }
        if (j < t.size() && is_ident(t[j]) && !is_keyword(t[j].text) &&
            j + 1 < t.size() &&
            (is_punct(t[j + 1], "(") || is_punct(t[j + 1], "{"))) {
          const std::size_t open = j + 1;
          const std::size_t close = match_bracket(t, open);
          if (close != std::string::npos) {
            std::size_t first_arg_end = close;
            int nest = 0;
            for (std::size_t a = open + 1; a < close; ++a) {
              if (t[a].kind != TokKind::kPunct) continue;
              if (t[a].text == "(" || t[a].text == "[" || t[a].text == "{") ++nest;
              if (t[a].text == ")" || t[a].text == "]" || t[a].text == "}") --nest;
              if (nest == 0 && t[a].text == ",") {
                first_arg_end = a;
                break;
              }
            }
            const std::string arg = last_identifier(t, open + 1, first_arg_end);
            if (!arg.empty()) {
              fn.guards.push_back({arg, i, tok.line, depth});
            }
            i = close;
            continue;
          }
        }
      }
      // Call site: identifier followed by '(' or by a template argument
      // list then '('.
      std::size_t after = i + 1;
      if (after < t.size() && is_punct(t[after], "<")) {
        const std::size_t c = match_angle(t, after);
        if (c != std::string::npos && c + 1 < t.size() &&
            is_punct(t[c + 1], "(")) {
          after = c + 1;
        }
      }
      if (after < t.size() && is_punct(t[after], "(")) {
        CallSite cs;
        cs.name = tok.text;
        cs.tok = i;
        cs.line = tok.line;
        if (i > 0 && (is_punct(t[i - 1], ".") || is_punct(t[i - 1], "->"))) {
          cs.member = true;
          if (i > 1 && is_ident(t[i - 2])) cs.receiver = t[i - 2].text;
        }
        fn.calls.push_back(std::move(cs));
      }
    }
  }
};

}  // namespace

std::vector<const Comment*> SourceFile::comments_on_line(int line) const {
  std::vector<const Comment*> out;
  for (const Comment& c : lx.comments) {
    if (c.line == line || c.end_line == line) out.push_back(&c);
  }
  return out;
}

std::size_t match_bracket(const std::vector<Token>& toks, std::size_t open) {
  if (open >= toks.size() || toks[open].kind != TokKind::kPunct)
    return std::string::npos;
  const std::string& oc = toks[open].text;
  std::string cc;
  if (oc == "(") cc = ")";
  else if (oc == "{") cc = "}";
  else if (oc == "[") cc = "]";
  else return std::string::npos;
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kPunct) continue;
    if (toks[i].text == oc) ++depth;
    if (toks[i].text == cc && --depth == 0) return i;
  }
  return std::string::npos;
}

Index build_index(std::vector<SourceFile> files) {
  Index index;
  index.files = std::move(files);
  for (std::size_t fi = 0; fi < index.files.size(); ++fi) {
    index.files[fi].lx = lex(index.files[fi].text);
    Scanner sc(index, static_cast<int>(fi));
    if (!index.files[fi].lx.tokens.empty()) {
      sc.scan_scope(0, index.files[fi].lx.tokens.size() - 1, "", "",
                    Scanner::kNoClass);
    }
  }
  for (std::size_t i = 0; i < index.functions.size(); ++i) {
    index.functions_by_name[index.functions[i].name].push_back(i);
  }
  return index;
}

bool ambiguous_std_method(const std::string& name) {
  static const std::set<std::string> kNames = {
      "begin",    "end",        "rbegin",     "rend",      "cbegin",
      "cend",     "size",       "length",     "empty",     "clear",
      "insert",   "erase",      "emplace",    "emplace_back",
      "emplace_front",          "push_back",  "pop_back",  "push_front",
      "pop_front", "push",      "pop",        "top",       "front",
      "back",     "at",         "find",       "count",     "contains",
      "reserve",  "resize",     "capacity",   "shrink_to_fit",
      "data",     "swap",       "assign",     "append",    "substr",
      "c_str",    "str",        "get",        "reset",     "release",
      "lock",     "unlock",     "try_lock",   "first",     "second",
      "value",    "value_or",   "has_value",  "load",      "store",
      "exchange", "wait",       "notify_one", "notify_all",
  };
  return kNames.count(name) != 0;
}

CallGraph build_call_graph(const Index& index) {
  CallGraph g;
  g.callees.resize(index.functions.size());
  for (std::size_t i = 0; i < index.functions.size(); ++i) {
    std::set<std::size_t> dedup;
    for (const CallSite& cs : index.functions[i].calls) {
      if (cs.member && ambiguous_std_method(cs.name)) continue;
      auto it = index.functions_by_name.find(cs.name);
      if (it == index.functions_by_name.end()) continue;
      for (std::size_t callee : it->second) dedup.insert(callee);
    }
    g.callees[i].assign(dedup.begin(), dedup.end());
  }
  return g;
}

}  // namespace picprk::lint
