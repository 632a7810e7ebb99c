#include "telemetry/trace.hpp"

#include <chrono>
#include <cstdlib>
#include <fstream>

#include "telemetry/event.hpp"

namespace ttlg::telemetry {
namespace {

double steady_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::size_t default_capacity() {
  if (const char* env = std::getenv("TTLG_TRACE_CAPACITY");
      env != nullptr && *env != '\0') {
    const long long v = std::atoll(env);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return 65536;
}

}  // namespace

TraceCollector::TraceCollector()
    : epoch_s_(steady_seconds()), capacity_(default_capacity()) {}

double TraceCollector::now_us() const {
  return (steady_seconds() - epoch_s_) * 1e6;
}

bool TraceCollector::has_room_locked() {
  if (events_.size() < capacity_) return true;
  ++dropped_;
  event(Site::kTraceDropped);
  return false;
}

void TraceCollector::add(TraceEvent ev) {
  std::lock_guard<std::mutex> lock(mu_);
  if (has_room_locked()) events_.push_back(std::move(ev));
}

std::size_t TraceCollector::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

std::vector<TraceEvent> TraceCollector::events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

void TraceCollector::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
  dropped_ = 0;
}

std::size_t TraceCollector::capacity() const {
  std::lock_guard<std::mutex> lock(mu_);
  return capacity_;
}

void TraceCollector::set_capacity(std::size_t cap) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = cap > 0 ? cap : 1;
}

std::int64_t TraceCollector::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

Json TraceCollector::to_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  Json doc = Json::object();
  Json& arr = doc["traceEvents"] = Json::array();
  for (const TraceEvent& ev : events_) {
    Json j = Json::object();
    j["name"] = ev.name;
    j["cat"] = ev.cat;
    j["ph"] = std::string(1, ev.ph);
    j["ts"] = ev.ts_us;
    if (ev.ph == 'X') j["dur"] = ev.dur_us;
    if (ev.ph == 'i') j["s"] = "t";  // instant scope: thread
    j["pid"] = 1;
    // Events recorded before tid tracking (or hand-built in tests)
    // default to lane 1.
    j["tid"] = static_cast<std::int64_t>(ev.tid == 0 ? 1 : ev.tid);
    Json args = ev.args.is_null() ? Json::object() : ev.args;
    args["depth"] = ev.depth;
    j["args"] = std::move(args);
    arr.push_back(std::move(j));
  }
  doc["displayTimeUnit"] = "ms";
  return doc;
}

bool TraceCollector::write_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out.good()) return false;
  to_json().dump(out, 2);
  out << '\n';
  return out.good();
}

TraceCollector& TraceCollector::global() {
  static TraceCollector collector;
  return collector;
}

}  // namespace ttlg::telemetry
