#include "util/log.hpp"

#include <cstdlib>
#include <iostream>
#include <mutex>
#include <string_view>

namespace picprk::util {

namespace {

LogLevel parse_level(std::string_view s) {
  if (s == "trace") return LogLevel::Trace;
  if (s == "debug") return LogLevel::Debug;
  if (s == "info") return LogLevel::Info;
  if (s == "warn") return LogLevel::Warn;
  if (s == "error") return LogLevel::Error;
  if (s == "off") return LogLevel::Off;
  return LogLevel::Warn;
}

LogLevel initial_level() {
  if (const char* env = std::getenv("PICPRK_LOG")) return parse_level(env);
  return LogLevel::Warn;
}

std::mutex& sink_mutex() {
  static std::mutex m;
  return m;
}

}  // namespace

LogLevel log_level() {
  static const LogLevel level = initial_level();
  return level;
}

const char* to_string(LogLevel level) {
  switch (level) {
    case LogLevel::Trace: return "TRACE";
    case LogLevel::Debug: return "DEBUG";
    case LogLevel::Info: return "INFO";
    case LogLevel::Warn: return "WARN";
    case LogLevel::Error: return "ERROR";
    case LogLevel::Off: return "OFF";
  }
  return "?";
}

void log_line(LogLevel level, const std::string& text) {
  std::scoped_lock lock(sink_mutex());
  std::cerr << '[' << to_string(level) << "] " << text << '\n';
}

}  // namespace picprk::util
