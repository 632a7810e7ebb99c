// Always-on flight recorder: a fixed-size ring buffer of recent events
// per thread, kept cheap enough to leave enabled in production. When a
// request fails — a try_* API returns a non-OK Status, or the fault
// injector fires — the recorder can dump the last-N events of every
// thread as a JSON post-mortem, so a classified error always comes with
// the attributable history that led to it.
//
// Design constraints:
//  - recording must not allocate: entries are fixed-size POD with
//    truncating char-array fields, appended to a preallocated ring;
//  - the ring is per-thread (registered on first use, retained after
//    thread exit so worker history survives into the post-mortem);
//    appends take the ring's own mutex, which only the owning thread
//    and a dumper ever touch — effectively uncontended;
//  - the master switch is one relaxed atomic (recorder_enabled() in
//    log.hpp), initialized from TTLG_FLIGHT_RECORDER (default on;
//    "0"/"off" disables).
//
// Feeding the recorder: telemetry::event writes every catalogued log
// and note event into the ring, its fields formatted into the fixed
// detail buffer; note() is the low-level entry point.
//
// Auto-dumps are written only when a dump directory is configured
// (TTLG_FLIGHT_DUMP_DIR or set_dump_dir) — a library must not scribble
// files into the working directory uninvited. dump_on_error() is the
// trigger the robustness layer calls; to_json() is always available
// programmatically.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "telemetry/json.hpp"
#include "telemetry/log.hpp"

namespace ttlg::telemetry {

/// One ring entry. Fixed layout, no heap: oversized strings truncate.
struct FlightEntry {
  double ts_us = 0;        ///< trace-collector epoch microseconds
  std::uint64_t seq = 0;   ///< global emission order across threads
  std::uint32_t tid = 0;   ///< this_thread_id() of the emitter
  LogLevel level = LogLevel::kDebug;
  char component[16] = {};
  char event[32] = {};
  char detail[112] = {};
};

class FlightRecorder {
 public:
  static FlightRecorder& global();

  /// Master switch (also reachable as telemetry::recorder_enabled()).
  void set_enabled(bool on);

  /// Per-thread ring capacity in entries (default 256, or
  /// TTLG_FLIGHT_CAPACITY). Applies to rings registered from now on;
  /// existing rings keep their size.
  void set_ring_capacity(std::size_t entries);

  /// Append an entry to the calling thread's ring. Callers gate on
  /// recorder_enabled() themselves (telemetry::event does).
  void note(LogLevel level, std::string_view component,
            std::string_view event, std::string_view detail);

  /// Snapshot of all retained entries, globally ordered oldest-first.
  std::vector<FlightEntry> entries() const;

  /// {"flight_recorder": {"dumped_at_us":..., "trigger": {...}|null,
  ///   "events": [{"ts_us","seq","tid","level","component","event",
  ///               "detail"}...]}}
  Json to_json() const;

  /// Drop all retained entries (rings stay registered).
  void clear();

  /// Where auto-dumps go; empty (and no TTLG_FLIGHT_DUMP_DIR) disables
  /// file output. Files are named ttlg_flight_<pid>_<n>.json.
  void set_dump_dir(std::string dir);

  /// Post-mortem hook for failing try_* paths and the fault injector:
  /// records the trigger as an error-level entry, then — when a dump
  /// directory is configured and the per-process dump cap
  /// (TTLG_FLIGHT_DUMP_LIMIT, default 16) is not exhausted — writes the
  /// full dump and returns its path. Returns "" when no file was
  /// written. No-op (returns "") when the recorder is disabled.
  std::string dump_on_error(const char* site, ErrorCode code,
                            const std::string& message);

  /// Auto-dumps written so far (process lifetime).
  std::int64_t dumps() const;

 private:
  struct Ring {
    mutable std::mutex mu;
    std::vector<FlightEntry> buf;  ///< capacity-sized, circular
    std::size_t capacity = 0;
    std::uint64_t written = 0;  ///< total appends (ring head = written % cap)
  };

  FlightRecorder();
  Ring& ring_for_this_thread();
  Json trigger_json_locked() const;

  mutable std::mutex mu_;  ///< guards rings_ registry + trigger/dump state
  std::vector<std::unique_ptr<Ring>> rings_;  ///< by registration order
  std::size_t ring_capacity_ = 256;
  std::atomic<std::uint64_t> seq_{0};

  // Last trigger (for to_json) and dump bookkeeping.
  bool has_trigger_ = false;
  std::string trigger_site_;
  ErrorCode trigger_code_ = ErrorCode::kInternal;
  std::string trigger_message_;
  std::string dump_dir_;
  bool dump_dir_from_env_ = false;
  std::int64_t dump_count_ = 0;
  std::int64_t dump_limit_ = 16;
};

}  // namespace ttlg::telemetry
