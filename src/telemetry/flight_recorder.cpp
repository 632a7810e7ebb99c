#include "telemetry/flight_recorder.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include <unistd.h>

#include "telemetry/event.hpp"
#include "telemetry/trace.hpp"

namespace ttlg::telemetry {
namespace {

/// Truncating copy into a fixed-size entry field.
template <std::size_t N>
void copy_field(char (&dst)[N], std::string_view src) {
  const std::size_t n = std::min(src.size(), N - 1);
  std::memcpy(dst, src.data(), n);
  dst[n] = '\0';
}

std::size_t env_size(const char* name, std::size_t def) {
  const char* env = std::getenv(name);
  if (!env || !*env) return def;
  const long long v = std::atoll(env);
  return v > 0 ? static_cast<std::size_t>(v) : def;
}

}  // namespace

namespace detail {

std::atomic<bool>& recorder_enabled_ref() {
  static std::atomic<bool> enabled{[] {
    const char* env = std::getenv("TTLG_FLIGHT_RECORDER");
    if (!env || !*env) return true;
    return !(std::string_view(env) == "0" || std::string_view(env) == "off");
  }()};
  return enabled;
}

}  // namespace detail

FlightRecorder::FlightRecorder()
    : ring_capacity_(env_size("TTLG_FLIGHT_CAPACITY", 256)),
      dump_limit_(
          static_cast<std::int64_t>(env_size("TTLG_FLIGHT_DUMP_LIMIT", 16))) {
  if (const char* dir = std::getenv("TTLG_FLIGHT_DUMP_DIR");
      dir != nullptr && *dir != '\0') {
    dump_dir_ = dir;
    dump_dir_from_env_ = true;
  }
}

FlightRecorder& FlightRecorder::global() {
  static FlightRecorder recorder;
  return recorder;
}

void FlightRecorder::set_enabled(bool on) {
  detail::recorder_enabled_ref().store(on, std::memory_order_relaxed);
}

void FlightRecorder::set_ring_capacity(std::size_t entries) {
  std::lock_guard<std::mutex> lock(mu_);
  ring_capacity_ = std::max<std::size_t>(entries, 1);
}

FlightRecorder::Ring& FlightRecorder::ring_for_this_thread() {
  // One-slot cache: in practice only the global recorder records, so
  // the owner check is a pointer compare on every note().
  thread_local FlightRecorder* owner = nullptr;
  thread_local Ring* cached = nullptr;
  if (owner == this) return *cached;
  auto ring = std::make_unique<Ring>();
  {
    std::lock_guard<std::mutex> lock(mu_);
    ring->capacity = ring_capacity_;
  }
  ring->buf.resize(ring->capacity);
  Ring* raw = ring.get();
  {
    std::lock_guard<std::mutex> lock(mu_);
    rings_.push_back(std::move(ring));
  }
  owner = this;
  cached = raw;
  return *raw;
}

void FlightRecorder::note(LogLevel level, std::string_view component,
                          std::string_view event, std::string_view detail) {
  Ring& ring = ring_for_this_thread();
  FlightEntry e;
  e.ts_us = TraceCollector::global().now_us();
  e.seq = seq_.fetch_add(1, std::memory_order_relaxed);
  e.tid = this_thread_id();
  e.level = level;
  copy_field(e.component, component);
  copy_field(e.event, event);
  copy_field(e.detail, detail);
  // The ring mutex is only ever contended by a dumper; the owning
  // thread is the sole writer.
  std::lock_guard<std::mutex> lock(ring.mu);
  ring.buf[static_cast<std::size_t>(ring.written % ring.capacity)] = e;
  ++ring.written;
}

std::vector<FlightEntry> FlightRecorder::entries() const {
  std::vector<FlightEntry> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& ring : rings_) {
    std::lock_guard<std::mutex> rl(ring->mu);
    const std::uint64_t kept =
        std::min<std::uint64_t>(ring->written, ring->capacity);
    for (std::uint64_t i = ring->written - kept; i < ring->written; ++i)
      out.push_back(ring->buf[static_cast<std::size_t>(i % ring->capacity)]);
  }
  std::sort(out.begin(), out.end(),
            [](const FlightEntry& a, const FlightEntry& b) {
              return a.seq < b.seq;
            });
  return out;
}

Json FlightRecorder::trigger_json_locked() const {
  if (!has_trigger_) return Json();
  Json t = Json::object();
  t["site"] = trigger_site_;
  t["code"] = ttlg::to_string(trigger_code_);
  t["message"] = trigger_message_;
  return t;
}

Json FlightRecorder::to_json() const {
  const std::vector<FlightEntry> evs = entries();
  Json doc = Json::object();
  Json& fr = doc["flight_recorder"] = Json::object();
  fr["dumped_at_us"] = TraceCollector::global().now_us();
  {
    std::lock_guard<std::mutex> lock(mu_);
    fr["trigger"] = trigger_json_locked();
  }
  Json& arr = fr["events"] = Json::array();
  for (const FlightEntry& e : evs) {
    Json j = Json::object();
    j["ts_us"] = e.ts_us;
    j["seq"] = static_cast<std::int64_t>(e.seq);
    j["tid"] = static_cast<std::int64_t>(e.tid);
    j["level"] = to_string(e.level);
    j["component"] = e.component;
    j["event"] = e.event;
    j["detail"] = e.detail;
    arr.push_back(std::move(j));
  }
  return doc;
}

void FlightRecorder::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& ring : rings_) {
    std::lock_guard<std::mutex> rl(ring->mu);
    ring->written = 0;
  }
  has_trigger_ = false;
  trigger_site_.clear();
  trigger_message_.clear();
}

void FlightRecorder::set_dump_dir(std::string dir) {
  std::lock_guard<std::mutex> lock(mu_);
  dump_dir_ = std::move(dir);
  dump_dir_from_env_ = false;
}

std::string FlightRecorder::dump_on_error(const char* site, ErrorCode code,
                                          const std::string& message) {
  if (!recorder_enabled()) return "";
  event(Site::kFlightTrigger, {{"code", ttlg::to_string(code)},
                               {"site", site},
                               {"message", message}});
  std::string path;
  {
    std::lock_guard<std::mutex> lock(mu_);
    has_trigger_ = true;
    trigger_site_ = site;
    trigger_code_ = code;
    trigger_message_ = message;
    if (dump_dir_.empty() || dump_count_ >= dump_limit_) return "";
    ++dump_count_;
    path = dump_dir_ + "/ttlg_flight_" +
           std::to_string(static_cast<long long>(getpid())) + "_" +
           std::to_string(dump_count_) + ".json";
  }
  std::ofstream out(path);
  if (!out.good()) {
    std::fprintf(stderr, "ttlg: cannot write flight-recorder dump '%s'\n",
                 path.c_str());
    return "";
  }
  to_json().dump(out, 2);
  out << '\n';
  event(Site::kFlightDump);
  return out.good() ? path : "";
}

std::int64_t FlightRecorder::dumps() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dump_count_;
}

}  // namespace ttlg::telemetry
