// Global telemetry switch for the library: off | counters | trace.
//
// The level is initialized once from the TTLG_TELEMETRY environment
// variable and can be overridden programmatically (set_level) or for a
// lexical scope (ScopedLevel — what the PlanOptions::telemetry override
// uses). Library sites never read it themselves: telemetry::event
// (event.hpp) checks it for each catalogued sink, so a site whose sinks
// are all off costs a few relaxed loads and branches and formats nothing.
#pragma once

#include <atomic>
#include <optional>
#include <string>

namespace ttlg::telemetry {

enum class Level : int {
  kOff = 0,       ///< no telemetry work at all
  kCounters = 1,  ///< metrics registry + model-accuracy residuals
  kTrace = 2,     ///< counters plus chrome://tracing event stream
};

namespace detail {
/// Backing store; initialized from TTLG_TELEMETRY on first use.
std::atomic<int>& level_ref();
}  // namespace detail

inline Level level() {
  return static_cast<Level>(
      detail::level_ref().load(std::memory_order_relaxed));
}
inline bool counters_enabled() { return level() >= Level::kCounters; }
inline bool trace_enabled() { return level() >= Level::kTrace; }

void set_level(Level l);
/// Raise the level to at least `l`; never lowers it.
void ensure_at_least(Level l);

/// "off" | "counters" | "trace" (case-sensitive); nullopt otherwise.
std::optional<Level> parse_level(const std::string& text);
std::string to_string(Level l);

/// RAII level override. The nullopt form is a no-op, so callers can
/// forward an optional override (PlanOptions::telemetry) untouched.
class ScopedLevel {
 public:
  explicit ScopedLevel(Level l) : prev_(static_cast<int>(level())) {
    set_level(l);
  }
  explicit ScopedLevel(std::optional<Level> l) {
    if (l) {
      prev_ = static_cast<int>(level());
      set_level(*l);
    }
  }
  ~ScopedLevel() {
    if (prev_ >= 0) set_level(static_cast<Level>(prev_));
  }
  ScopedLevel(const ScopedLevel&) = delete;
  ScopedLevel& operator=(const ScopedLevel&) = delete;

 private:
  int prev_ = -1;
};

}  // namespace ttlg::telemetry
