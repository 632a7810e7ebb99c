#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>

#include <sys/resource.h>

#include "bench.hpp"

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0 : sum(v) / static_cast<double>(v.size());
}

// ---- report ---------------------------------------------------------------

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void Report::metric(const std::string& name, double value,
                    const std::string& unit, const std::string& clock) {
  metrics_.push_back({name, value, unit, clock});
}

void Report::config(const std::string& key, const std::string& value) {
  config_.emplace_back(key, value);
}

void Report::attempt(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    if (errors_.size() < 20) errors_.push_back("failed: " + what);
  }
}

void Report::check(bool ok, const std::string& what) {
  if (!ok && errors_.size() < 40) errors_.push_back("check: " + what);
}

std::string Report::to_json() const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct() ? "true" : "false")
     << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ", \"errors\": [";
  for (std::size_t i = 0; i < errors_.size(); ++i)
    os << (i ? ", " : "") << '"' << json_escape(errors_[i]) << '"';
  os << "], \"config\": {";
  for (std::size_t i = 0; i < config_.size(); ++i)
    os << (i ? ", " : "") << '"' << json_escape(config_[i].first) << "\": \""
       << json_escape(config_[i].second) << '"';
  os << "}, \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    os << (i ? ", " : "") << '"' << json_escape(m.name)
       << "\": {\"value\": " << num(m.value) << ", \"unit\": \""
       << json_escape(m.unit) << "\", \"clock\": \"" << m.clock << "\"}";
  }
  os << "}}";
  return os.str();
}

// ---- tracing --------------------------------------------------------------

int SpanRecorder::begin(const char* name, int parent) {
  if (!enabled_) return -1;
  const std::int64_t t = now_ns();
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back({name, parent, t, t});
  return static_cast<int>(spans_.size() - 1);
}

int SpanRecorder::record(const char* name, std::int64_t start_ns,
                         std::int64_t end_ns, int parent) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back({name, parent, start_ns, end_ns});
  return static_cast<int>(spans_.size() - 1);
}

void SpanRecorder::end(int id) {
  if (id < 0) return;
  const std::int64_t t = now_ns();
  std::lock_guard<std::mutex> lk(mu_);
  spans_[static_cast<std::size_t>(id)].end_ns = t;
}

std::vector<double> SpanRecorder::self_ns(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent >= 0)
      child[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns);
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (name == spans_[i].name)
      out.push_back(static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) -
                    child[i]);
  return out;
}

std::map<std::string, double> SpanRecorder::self_ms_p50() const {
  std::map<std::string, bool> names;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (const Span& s : spans_) names[s.name] = true;
  }
  std::map<std::string, double> out;
  for (const auto& [n, unused] : names) out[n] = median(self_ns(n)) * 1e-6;
  return out;
}

void SpanRecorder::write(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return;
  std::lock_guard<std::mutex> lk(mu_);
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  // One JSON object per line: id, parent, name, start and end in ns
  // relative to the first span.
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    f << "{\"id\":" << i << ",\"parent\":" << s.parent << ",\"name\":\""
      << s.name << "\",\"start_ns\":" << (s.start_ns - t0)
      << ",\"end_ns\":" << (s.end_ns - t0) << "}\n";
  }
}

// ---- process facts ----------------------------------------------------------

double peak_rss_mb() {
  // VmHWM is the resident-set high-water mark of this process.
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream is(line.substr(6));
      double kb = 0;
      is >> kb;
      return kb / 1024.0;
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string host_llc_size() {
  // The highest cache level sysfs lists for cpu0.
  std::string best = "unknown";
  int best_level = -1;
  for (int i = 0; i < 8; ++i) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i) + "/";
    std::ifstream lf(dir + "level"), sf(dir + "size");
    int level = 0;
    std::string size;
    if (!(lf >> level) || !(sf >> size)) continue;
    if (level > best_level) {
      best_level = level;
      best = std::to_string(level);
      best.insert(0, 1, 'L');
      best += ' ';
      best += size;
    }
  }
  return best;
}

}  // namespace perfbench
