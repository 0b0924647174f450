// Minimal thread-safe leveled logger. The PRK implementations log load
// balancing decisions and migration volumes at Debug level; benches and
// examples log at Info. A global level keeps hot paths cheap: the macro
// skips message formatting entirely when the level is disabled.
#pragma once

#include <sstream>
#include <string>

namespace picprk::util {

enum class LogLevel { Trace = 0, Debug = 1, Info = 2, Warn = 3, Error = 4, Off = 5 };

/// Returns the current global log level (default: Warn, override with
/// environment variable PICPRK_LOG=trace|debug|info|warn|error|off).
LogLevel log_level();

/// Emits one line to stderr with a level prefix; serialized across threads.
void log_line(LogLevel level, const std::string& text);

const char* to_string(LogLevel level);

}  // namespace picprk::util

#define PICPRK_LOG(lvl, expr)                                   \
  do {                                                          \
    if (static_cast<int>(lvl) >=                                \
        static_cast<int>(::picprk::util::log_level())) {        \
      std::ostringstream _picprk_os;                            \
      _picprk_os << expr;                                       \
      ::picprk::util::log_line(lvl, _picprk_os.str());          \
    }                                                           \
  } while (0)

#define PICPRK_TRACE(expr) PICPRK_LOG(::picprk::util::LogLevel::Trace, expr)
#define PICPRK_DEBUG(expr) PICPRK_LOG(::picprk::util::LogLevel::Debug, expr)
#define PICPRK_INFO(expr) PICPRK_LOG(::picprk::util::LogLevel::Info, expr)
#define PICPRK_WARN(expr) PICPRK_LOG(::picprk::util::LogLevel::Warn, expr)
#define PICPRK_ERROR(expr) PICPRK_LOG(::picprk::util::LogLevel::Error, expr)
