#include "util/cli.hpp"

#include <iostream>
#include <sstream>
#include <stdexcept>

#include "util/assert.hpp"

namespace picprk::util {

std::int64_t parse_int(const std::string& text) {
  std::size_t used = 0;
  try {
    const std::int64_t value = std::stoll(text, &used);
    if (used == text.size()) return value;
  } catch (const std::exception&) {
  }
  throw std::invalid_argument("expected an integer, got '" + text + "'");
}

double parse_double(const std::string& text) {
  std::size_t used = 0;
  try {
    const double value = std::stod(text, &used);
    if (used == text.size()) return value;
  } catch (const std::exception&) {
  }
  throw std::invalid_argument("expected a number, got '" + text + "'");
}

ArgParser::ArgParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

namespace {
std::string kind_name(int kind) {
  switch (kind) {
    case 0: return "flag";
    case 1: return "int";
    case 2: return "double";
    default: return "string";
  }
}
}  // namespace

void ArgParser::add_flag(const std::string& name, bool default_value,
                         const std::string& help) {
  PICPRK_EXPECTS(!options_.contains(name));
  options_[name] = Option{Kind::Flag, help, default_value ? "true" : "false",
                          default_value ? "true" : "false"};
  order_.push_back(name);
}

void ArgParser::add_int(const std::string& name, std::int64_t default_value,
                        const std::string& help) {
  PICPRK_EXPECTS(!options_.contains(name));
  options_[name] =
      Option{Kind::Int, help, std::to_string(default_value), std::to_string(default_value)};
  order_.push_back(name);
}

void ArgParser::add_double(const std::string& name, double default_value,
                           const std::string& help) {
  PICPRK_EXPECTS(!options_.contains(name));
  std::ostringstream os;
  os << default_value;
  options_[name] = Option{Kind::Double, help, os.str(), os.str()};
  order_.push_back(name);
}

void ArgParser::add_string(const std::string& name, std::string default_value,
                           const std::string& help) {
  PICPRK_EXPECTS(!options_.contains(name));
  options_[name] = Option{Kind::String, help, default_value, default_value};
  order_.push_back(name);
}

bool ArgParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cout << usage();
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      throw std::invalid_argument("unexpected positional argument: " + arg);
    }
    std::string name = arg.substr(2);
    std::optional<std::string> value;
    if (auto eq = name.find('='); eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
    }
    auto it = options_.find(name);
    if (it == options_.end()) {
      throw std::invalid_argument("unknown option --" + name + "\n" + usage());
    }
    Option& opt = it->second;
    if (!value) {
      if (opt.kind == Kind::Flag) {
        value = "true";
      } else {
        if (i + 1 >= argc)
          throw std::invalid_argument("missing value for --" + name);
        value = argv[++i];
      }
    }
    // Validate typed values eagerly so errors surface at startup.
    try {
      switch (opt.kind) {
        case Kind::Flag:
          if (*value != "true" && *value != "false")
            throw std::invalid_argument("flag must be true/false");
          break;
        case Kind::Int:
          (void)parse_int(*value);
          break;
        case Kind::Double:
          (void)parse_double(*value);
          break;
        case Kind::String:
          break;
      }
    } catch (const std::exception&) {
      throw std::invalid_argument("bad " + kind_name(static_cast<int>(opt.kind)) +
                                  " value for --" + name + ": " + *value);
    }
    opt.value = *value;
    opt.supplied = true;
  }
  return true;
}

const ArgParser::Option& ArgParser::lookup(const std::string& name, Kind kind) const {
  auto it = options_.find(name);
  PICPRK_ASSERT_MSG(it != options_.end(), "option not registered: " + name);
  PICPRK_ASSERT_MSG(it->second.kind == kind, "wrong type for option: " + name);
  return it->second;
}

bool ArgParser::get_flag(const std::string& name) const {
  return lookup(name, Kind::Flag).value == "true";
}

std::int64_t ArgParser::get_int(const std::string& name) const {
  return parse_int(lookup(name, Kind::Int).value);
}

double ArgParser::get_double(const std::string& name) const {
  return parse_double(lookup(name, Kind::Double).value);
}

std::string ArgParser::get_string(const std::string& name) const {
  return lookup(name, Kind::String).value;
}

bool ArgParser::supplied(const std::string& name) const {
  auto it = options_.find(name);
  return it != options_.end() && it->second.supplied;
}

std::string ArgParser::usage() const {
  std::ostringstream os;
  os << program_ << " — " << description_ << "\n\noptions:\n";
  for (const auto& name : order_) {
    const Option& opt = options_.at(name);
    os << "  --" << name;
    if (opt.kind != Kind::Flag) os << " <" << kind_name(static_cast<int>(opt.kind)) << '>';
    os << "  " << opt.help << " (default: " << opt.def << ")\n";
  }
  return os.str();
}

}  // namespace picprk::util
