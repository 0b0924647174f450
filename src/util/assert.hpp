// Contract-checking macros in the spirit of the C++ Core Guidelines
// (I.6 Expects, I.8 Ensures). Violations throw a typed, catchable
// picprk::util::AssertionError so that unit tests can assert on them and
// the fault-tolerance recovery loop (src/ft) can degrade gracefully
// instead of tearing the process down. They are enabled in all build
// types because the PRK is a correctness-measuring tool and silent
// corruption defeats its purpose.
//
// Legacy hard-abort behaviour is still available for debugging (an abort
// leaves a core dump at the exact failure point):
//  * compile-time: -DPICPRK_ASSERT_ABORT, or
//  * run-time: environment variable PICPRK_ASSERT_ABORT=1.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <source_location>
#include <sstream>
#include <stdexcept>
#include <string>

namespace picprk::util {

/// Thrown when a precondition, postcondition or internal invariant fails.
/// Carries the structured failure location so handlers (recovery loop,
/// drivers, tests) can report or react without parsing what().
class AssertionError : public std::logic_error {
 public:
  AssertionError(const char* kind, const char* expr,
                 const std::source_location& loc, const std::string& msg)
      : std::logic_error(format(kind, expr, loc, msg)),
        kind_(kind),
        expression_(expr),
        file_(loc.file_name()),
        line_(loc.line()),
        message_(msg) {}

  /// "Precondition", "Postcondition" or "Invariant".
  const char* kind() const noexcept { return kind_; }
  /// The failed expression, verbatim.
  // picprk-lint: suppress(reach: read by Contracts.AccessorsExposeStructuredLocation)
  const char* expression() const noexcept { return expression_; }
  const char* file() const noexcept { return file_; }
  unsigned line() const noexcept { return line_; }
  /// The optional explanatory message (empty if none was given).
  const std::string& message() const noexcept { return message_; }

 private:
  static std::string format(const char* kind, const char* expr,
                            const std::source_location& loc,
                            const std::string& msg) {
    std::ostringstream os;
    os << kind << " failed: (" << expr << ") at " << loc.file_name() << ':'
       << loc.line() << " in " << loc.function_name();
    if (!msg.empty()) os << " — " << msg;
    return os.str();
  }

  const char* kind_;
  const char* expression_;
  const char* file_;
  unsigned line_;
  std::string message_;
};

namespace detail {

/// Whether contract violations should abort instead of throw. The env
/// variable is read once; the compile-time define wins unconditionally.
inline bool assert_aborts() {
#ifdef PICPRK_ASSERT_ABORT
  return true;
#else
  static const bool aborts = [] {
    const char* env = std::getenv("PICPRK_ASSERT_ABORT");
    return env != nullptr && env[0] != '\0' && env[0] != '0';
  }();
  return aborts;
#endif
}

[[noreturn]] inline void contract_fail(const char* kind, const char* expr,
                                       const std::source_location& loc,
                                       const std::string& msg = {}) {
  AssertionError error(kind, expr, loc, msg);
  if (assert_aborts()) {
    std::fputs(error.what(), stderr);
    std::fputc('\n', stderr);
    std::abort();
  }
  throw error;
}

}  // namespace detail

}  // namespace picprk::util

namespace picprk {
/// Historical name; AssertionError is the same type.
using ContractViolation = util::AssertionError;
}  // namespace picprk

/// Precondition check: argument validation at API boundaries.
#define PICPRK_EXPECTS(cond)                                          \
  do {                                                                \
    if (!(cond))                                                      \
      ::picprk::util::detail::contract_fail("Precondition", #cond,    \
                                      std::source_location::current()); \
  } while (0)

/// Postcondition check.
#define PICPRK_ENSURES(cond)                                          \
  do {                                                                \
    if (!(cond))                                                      \
      ::picprk::util::detail::contract_fail("Postcondition", #cond,   \
                                      std::source_location::current()); \
  } while (0)

/// Internal invariant check with an explanatory message.
#define PICPRK_ASSERT_MSG(cond, msg)                                  \
  do {                                                                \
    if (!(cond))                                                      \
      ::picprk::util::detail::contract_fail("Invariant", #cond,       \
                                      std::source_location::current(), \
                                      (msg));                         \
  } while (0)

/// Internal invariant check.
#define PICPRK_ASSERT(cond) PICPRK_ASSERT_MSG(cond, std::string{})
