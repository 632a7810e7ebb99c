// Chrome-tracing event stream (chrome://tracing / Perfetto "Trace Event
// Format", JSON array flavour). Library sites feed it through the
// catalogue (event.hpp): a telemetry::Stage appends a complete ('X')
// event carrying the fields its site emitted as args, and catalogued
// instants append 'i' events. Stages nest lexically *per thread*;
// nesting is reconstructed by the viewer from [ts, ts+dur] containment
// within a thread lane and recorded explicitly as a `depth` arg. Every
// event carries the emitting thread's id (this_thread_id()), so
// worker-pool stages render as separate Perfetto lanes.
//
// The collector retains at most capacity() events (default 65536, or
// TTLG_TRACE_CAPACITY) so a long-running process cannot grow without
// bound; overflow drops the newest event and counts it in the global
// registry under "trace.dropped_events".
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "telemetry/json.hpp"

namespace ttlg::telemetry {

struct TraceEvent {
  std::string name;
  std::string cat;
  char ph = 'X';           ///< 'X' complete span, 'i' instant
  double ts_us = 0;        ///< wall-clock microseconds since collector epoch
  double dur_us = 0;       ///< 'X' events only
  int depth = 0;           ///< per-thread span nesting depth at emission
  std::uint32_t tid = 0;   ///< this_thread_id() of the emitter (0 = unset)
  Json args;               ///< object (or null when the event has no args)
};

class TraceCollector {
 public:
  TraceCollector();

  /// Microseconds since this collector's epoch (process start for the
  /// global collector).
  double now_us() const;

  void add(TraceEvent ev);

  std::size_t size() const;
  bool empty() const { return size() == 0; }
  std::vector<TraceEvent> events() const;
  void clear();

  /// {"traceEvents": [...], "displayTimeUnit": "ms"} — what
  /// chrome://tracing and Perfetto load directly.
  Json to_json() const;
  /// Write to_json() to a file; false (no throw) on I/O failure.
  bool write_file(const std::string& path) const;

  static TraceCollector& global();

  /// Retention cap in events; excess events are dropped (and counted).
  std::size_t capacity() const;
  void set_capacity(std::size_t cap);
  /// Events dropped by this collector since construction/clear().
  std::int64_t dropped() const;

 private:
  bool has_room_locked();  ///< false = drop (already counted)

  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
  double epoch_s_ = 0;
  std::size_t capacity_;
  std::int64_t dropped_ = 0;
};

}  // namespace ttlg::telemetry
