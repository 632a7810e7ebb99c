#include "telemetry/prometheus.hpp"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "telemetry/metrics.hpp"

namespace ttlg::telemetry {
namespace {

/// Shortest round-trip decimal, matching how Prometheus clients print.
std::string fmt_num(double v) {
  if (v == static_cast<double>(static_cast<std::int64_t>(v)) &&
      std::abs(v) < 1e15)
    return std::to_string(static_cast<std::int64_t>(v));
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  double parsed = std::strtod(buf, nullptr);
  if (parsed == v) {
    for (int prec = 1; prec < 17; ++prec) {
      char probe[64];
      std::snprintf(probe, sizeof probe, "%.*g", prec, v);
      if (std::strtod(probe, nullptr) == v) return probe;
    }
  }
  return buf;
}

void emit_header(std::ostringstream& os, const std::string& name,
                 const std::string& source, const char* type) {
  os << "# HELP " << name << " TTLG metric " << source << '\n';
  os << "# TYPE " << name << ' ' << type << '\n';
}

void emit_histogram(std::ostringstream& os, const std::string& source,
                    const Json& h) {
  const Json* jbounds = h.find("bounds");
  const Json* jcounts = h.find("counts");
  const Json* jsum = h.find("sum");
  const Json* jcount = h.find("count");
  if (!jbounds || !jcounts || !jsum || !jcount) return;
  if (!jbounds->is_array() || !jcounts->is_array()) return;
  if (jcounts->size() != jbounds->size() + 1) return;

  std::vector<double> bounds;
  for (std::size_t i = 0; i < jbounds->size(); ++i)
    bounds.push_back(jbounds->at(i).as_double());
  std::vector<std::int64_t> counts;
  for (std::size_t i = 0; i < jcounts->size(); ++i)
    counts.push_back(jcounts->at(i).as_int());

  const std::string name = prometheus_name(source);
  emit_header(os, name, source, "histogram");
  std::int64_t cumulative = 0;
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    cumulative += counts[i];
    os << name << "_bucket{le=\"" << fmt_num(bounds[i]) << "\"} " << cumulative
       << '\n';
  }
  cumulative += counts.back();
  os << name << "_bucket{le=\"+Inf\"} " << cumulative << '\n';
  os << name << "_sum " << fmt_num(jsum->as_double()) << '\n';
  os << name << "_count " << jcount->as_int() << '\n';

  static constexpr struct {
    const char* suffix;
    double q;
  } kQuantiles[] = {{"_p50", 0.50}, {"_p95", 0.95}, {"_p99", 0.99}};
  for (const auto& [suffix, q] : kQuantiles) {
    emit_header(os, name + suffix, source, "gauge");
    os << name << suffix << ' '
       << fmt_num(histogram_quantile(bounds, counts, q)) << '\n';
  }
}

}  // namespace

std::string prometheus_name(const std::string& name) {
  std::string out = "ttlg_";
  for (char c : name)
    out += (std::isalnum(static_cast<unsigned char>(c)) || c == '_')
               ? c
               : '_';
  return out;
}

std::string to_prometheus(const Json& snapshot) {
  std::ostringstream os;
  const auto scalars = [&](const char* group, const char* type) {
    const Json* metrics = snapshot.find(group);
    if (metrics == nullptr || !metrics->is_object()) return;
    for (const auto& [source, v] : metrics->items()) {
      if (!v.is_number()) continue;
      const std::string name = prometheus_name(source);
      emit_header(os, name, source, type);
      os << name << ' ' << fmt_num(v.as_double()) << '\n';
    }
  };
  scalars("counters", "counter");
  scalars("gauges", "gauge");
  if (const Json* hists = snapshot.find("histograms");
      hists != nullptr && hists->is_object()) {
    for (const auto& [source, h] : hists->items()) {
      if (h.is_object()) emit_histogram(os, source, h);
    }
  }
  return os.str();
}

std::string to_prometheus(const MetricsRegistry& registry) {
  return to_prometheus(registry.to_json());
}

void SnapshotWriter::start(std::string path, std::int64_t period_ms) {
  stop();
  std::lock_guard<std::mutex> lock(mu_);
  path_ = std::move(path);
  period_ms_ = std::max<std::int64_t>(period_ms, 10);
  stop_requested_ = false;
  running_ = true;
  thread_ = std::thread([this] { run(); });
}

void SnapshotWriter::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_) return;
    stop_requested_ = true;
  }
  cv_.notify_all();
  thread_.join();
  write_now();  // the terminal state is the snapshot operators care about
  std::lock_guard<std::mutex> lock(mu_);
  running_ = false;
}

bool SnapshotWriter::running() const {
  std::lock_guard<std::mutex> lock(mu_);
  return running_;
}

bool SnapshotWriter::write_now() const {
  std::string path;
  {
    std::lock_guard<std::mutex> lock(mu_);
    path = path_;
  }
  if (path.empty()) return false;
  const bool prom = path.size() >= 5 && path.rfind(".prom") == path.size() - 5;
  const Json snapshot = MetricsRegistry::global().to_json();
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp);
    if (!out.good()) {
      std::fprintf(stderr, "ttlg: cannot write metrics snapshot '%s'\n",
                   tmp.c_str());
      return false;
    }
    if (prom) {
      out << to_prometheus(snapshot);
    } else {
      snapshot.dump(out, 2);
      out << '\n';
    }
    if (!out.good()) return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::fprintf(stderr, "ttlg: cannot rename metrics snapshot to '%s'\n",
                 path.c_str());
    return false;
  }
  return true;
}

void SnapshotWriter::run() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_requested_) {
    cv_.wait_for(lock, std::chrono::milliseconds(period_ms_),
                 [this] { return stop_requested_; });
    if (stop_requested_) break;
    lock.unlock();
    write_now();
    lock.lock();
  }
}

SnapshotWriter& SnapshotWriter::global() {
  // Touch the registry first so it is constructed before (and therefore
  // destroyed after) the writer — the writer's destructor takes a final
  // snapshot.
  MetricsRegistry::global();
  static SnapshotWriter writer;
  return writer;
}

bool SnapshotWriter::maybe_start_from_env() {
  const char* path = std::getenv("TTLG_METRICS_SNAPSHOT");
  if (!path || !*path) return global().running();
  std::int64_t period_ms = 1000;
  if (const char* p = std::getenv("TTLG_METRICS_SNAPSHOT_PERIOD_MS");
      p != nullptr && *p != '\0') {
    const long long v = std::atoll(p);
    if (v > 0) period_ms = v;
  }
  if (!global().running()) global().start(path, period_ms);
  return true;
}

}  // namespace ttlg::telemetry
