// Structured event log: leveled, JSON-lines records with timestamp,
// thread id, component and free-form key/value fields. This is the
// serving-grade counterpart of the chrome://tracing stream — meant to
// be followed live (stderr or a file) by an operator, not loaded into a
// viewer after the fact.
//
// The level gate is one relaxed atomic load, initialized from the
// TTLG_LOG_LEVEL environment variable (debug|info|warn|error|off,
// default off). Records come only from telemetry::event (event.hpp):
// the catalogue gives each log event its component and level, and the
// same event is mirrored into the per-thread flight-recorder ring
// (flight_recorder.hpp) whether or not the log sink takes it.
//
// Record shape (one compact JSON document per line):
//   {"ts_us":1234.5,"level":"warn","tid":3,"component":"robustness",
//    "event":"fallback","fields":{"stage":"exec","to":"naive",...}}
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "telemetry/json.hpp"

namespace ttlg::telemetry {

enum class LogLevel : int {
  kDebug = 0,
  kInfo = 1,
  kWarn = 2,
  kError = 3,
  kOff = 4,  ///< gate value only; never the level of a record
};

const char* to_string(LogLevel lv);
/// "debug"|"info"|"warn"|"error"|"off"; nullopt otherwise.
std::optional<LogLevel> parse_log_level(const std::string& text);

namespace detail {
/// Backing store; initialized from TTLG_LOG_LEVEL on first use.
std::atomic<int>& log_level_ref();
/// Flight-recorder master switch (defined in flight_recorder.cpp,
/// initialized from TTLG_FLIGHT_RECORDER; default on).
std::atomic<bool>& recorder_enabled_ref();
/// Serialize one record and hand it to the sink (telemetry::event's log
/// sink). A null `fields` omits the "fields" key.
void write_log(LogLevel lv, std::string_view component,
               std::string_view event, Json fields);
}  // namespace detail

inline LogLevel log_level() {
  return static_cast<LogLevel>(
      detail::log_level_ref().load(std::memory_order_relaxed));
}
inline bool log_enabled(LogLevel lv) {
  return lv != LogLevel::kOff && lv >= log_level();
}
inline bool recorder_enabled() {
  return detail::recorder_enabled_ref().load(std::memory_order_relaxed);
}

void set_log_level(LogLevel lv);

/// RAII log-level override for tests and scoped verbosity.
class ScopedLogLevel {
 public:
  explicit ScopedLogLevel(LogLevel lv)
      : prev_(static_cast<int>(log_level())) {
    set_log_level(lv);
  }
  ~ScopedLogLevel() { set_log_level(static_cast<LogLevel>(prev_)); }
  ScopedLogLevel(const ScopedLogLevel&) = delete;
  ScopedLogLevel& operator=(const ScopedLogLevel&) = delete;

 private:
  int prev_;
};

/// Small sequential id for the calling thread (1-based, assigned on
/// first use). Shared by the log, trace and flight-recorder layers so
/// one request's records correlate across all three.
std::uint32_t this_thread_id();

/// Replace the line sink (default: TTLG_LOG_FILE when set, else
/// stderr). Passing nullptr restores the default. The sink is called
/// with one complete serialized record (no trailing newline) under an
/// internal mutex, so it need not be thread-safe itself.
void set_log_sink(std::function<void(const std::string&)> sink);

}  // namespace ttlg::telemetry
