// A small command-line option parser for the examples and bench harnesses.
// Supports --key value, --key=value, boolean flags, typed defaults and an
// auto-generated --help. Unknown options are an error (they usually mean a
// typo in an experiment sweep, which would silently invalidate results).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace picprk::util {

/// Whole-string numeric parsers: the entire text must be one number, so
/// "1e5" is not an integer and "12abc" is not 12. Throw
/// std::invalid_argument (also on overflow); callers that want their own
/// error text catch it and rethrow.
std::int64_t parse_int(const std::string& text);
double parse_double(const std::string& text);

class ArgParser {
 public:
  ArgParser(std::string program, std::string description);

  /// Registers an option with a default value; `help` appears in --help.
  void add_flag(const std::string& name, bool default_value, const std::string& help);
  void add_int(const std::string& name, std::int64_t default_value, const std::string& help);
  void add_double(const std::string& name, double default_value, const std::string& help);
  void add_string(const std::string& name, std::string default_value, const std::string& help);

  /// Parses argv. Returns false (after printing usage) when --help was
  /// requested; throws std::invalid_argument on malformed input.
  bool parse(int argc, const char* const* argv);

  bool get_flag(const std::string& name) const;
  std::int64_t get_int(const std::string& name) const;
  double get_double(const std::string& name) const;
  std::string get_string(const std::string& name) const;

  /// True when the user supplied the option explicitly.
  bool supplied(const std::string& name) const;

  std::string usage() const;

 private:
  enum class Kind { Flag, Int, Double, String };
  struct Option {
    Kind kind;
    std::string help;
    std::string value;     // textual current value
    std::string def;       // textual default
    bool supplied = false;
  };

  const Option& lookup(const std::string& name, Kind kind) const;

  std::string program_;
  std::string description_;
  std::map<std::string, Option> options_;
  std::vector<std::string> order_;
};

}  // namespace picprk::util
