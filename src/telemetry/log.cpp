#include "telemetry/log.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>

#include "telemetry/trace.hpp"

namespace ttlg::telemetry {
namespace {

struct Sink {
  std::mutex mu;
  std::function<void(const std::string&)> fn;  // empty = default
  std::ofstream file;
  bool file_tried = false;

  void write(const std::string& line) {
    std::lock_guard<std::mutex> lock(mu);
    if (fn) {
      fn(line);
      return;
    }
    if (!file_tried) {
      file_tried = true;
      if (const char* path = std::getenv("TTLG_LOG_FILE");
          path != nullptr && *path != '\0') {
        file.open(path, std::ios::app);
        if (!file.good())
          std::fprintf(stderr, "ttlg: cannot open TTLG_LOG_FILE '%s'\n", path);
      }
    }
    if (file.is_open()) {
      file << line << '\n';
      file.flush();
    } else {
      std::fprintf(stderr, "%s\n", line.c_str());
    }
  }
};

Sink& sink() {
  static Sink s;
  return s;
}

}  // namespace

namespace detail {

std::atomic<int>& log_level_ref() {
  static std::atomic<int> level{[] {
    const char* env = std::getenv("TTLG_LOG_LEVEL");
    if (!env || !*env) return static_cast<int>(LogLevel::kOff);
    if (auto lv = parse_log_level(env)) return static_cast<int>(*lv);
    std::fprintf(stderr,
                 "ttlg: ignoring unknown TTLG_LOG_LEVEL value '%s' "
                 "(expected debug|info|warn|error|off)\n",
                 env);
    return static_cast<int>(LogLevel::kOff);
  }()};
  return level;
}

}  // namespace detail

const char* to_string(LogLevel lv) {
  switch (lv) {
    case LogLevel::kDebug: return "debug";
    case LogLevel::kInfo: return "info";
    case LogLevel::kWarn: return "warn";
    case LogLevel::kError: return "error";
    case LogLevel::kOff: return "off";
  }
  return "?";
}

std::optional<LogLevel> parse_log_level(const std::string& text) {
  if (text == "debug") return LogLevel::kDebug;
  if (text == "info") return LogLevel::kInfo;
  if (text == "warn") return LogLevel::kWarn;
  if (text == "error") return LogLevel::kError;
  if (text == "off") return LogLevel::kOff;
  return std::nullopt;
}

void set_log_level(LogLevel lv) {
  detail::log_level_ref().store(static_cast<int>(lv),
                                std::memory_order_relaxed);
}

std::uint32_t this_thread_id() {
  static std::atomic<std::uint32_t> next{1};
  thread_local std::uint32_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

void set_log_sink(std::function<void(const std::string&)> new_sink) {
  Sink& s = sink();
  std::lock_guard<std::mutex> lock(s.mu);
  s.fn = std::move(new_sink);
}

namespace detail {

void write_log(LogLevel lv, std::string_view component,
               std::string_view event, Json fields) {
  Json rec = Json::object();
  // Log, trace and recorder timestamps share the trace collector's
  // epoch so the three streams line up in a post-mortem.
  rec["ts_us"] = TraceCollector::global().now_us();
  rec["level"] = to_string(lv);
  rec["tid"] = static_cast<std::int64_t>(this_thread_id());
  rec["component"] = std::string(component);
  rec["event"] = std::string(event);
  if (!fields.is_null()) rec["fields"] = std::move(fields);
  sink().write(rec.dump());
}

}  // namespace detail

}  // namespace ttlg::telemetry
