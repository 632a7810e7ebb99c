#include "telemetry/metrics.hpp"

#include <algorithm>
#include <sstream>

#include "common/error.hpp"
#include "common/table.hpp"

namespace ttlg::telemetry {

double histogram_quantile(const std::vector<double>& bounds,
                          const std::vector<std::int64_t>& counts, double q) {
  if (counts.size() != bounds.size() + 1) return 0.0;
  std::int64_t total = 0;
  for (std::int64_t c : counts) total += c;
  if (total <= 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(total);
  double cumulative = 0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    const double next = cumulative + static_cast<double>(counts[b]);
    if (next >= rank && counts[b] > 0) {
      // Overflow bucket has no finite upper edge: clamp to the last
      // finite bound (the estimate cannot exceed observed knowledge).
      if (b == bounds.size()) return bounds.empty() ? 0.0 : bounds.back();
      const double lo = b == 0 ? 0.0 : bounds[b - 1];
      const double hi = bounds[b];
      const double frac = (rank - cumulative) / static_cast<double>(counts[b]);
      return lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
    }
    cumulative = next;
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  for (std::size_t i = 1; i < bounds_.size(); ++i)
    TTLG_CHECK(bounds_[i - 1] < bounds_[i],
               "histogram bucket bounds must be strictly increasing");
  counts_ = std::make_unique<std::atomic<std::int64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i)
    counts_[i].store(0, std::memory_order_relaxed);
}

void Histogram::observe(double x) {
  std::size_t b = 0;
  while (b < bounds_.size() && x > bounds_[b]) ++b;
  counts_[b].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(x, std::memory_order_relaxed);
}

std::vector<std::int64_t> Histogram::bucket_counts() const {
  std::vector<std::int64_t> out(bounds_.size() + 1);
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = counts_[i].load(std::memory_order_relaxed);
  return out;
}

std::int64_t Histogram::count() const {
  return count_.load(std::memory_order_relaxed);
}

double Histogram::sum() const { return sum_.load(std::memory_order_relaxed); }

double Histogram::mean() const {
  const std::int64_t n = count();
  return n == 0 ? 0.0 : sum() / static_cast<double>(n);
}

double Histogram::quantile(double q) const {
  return histogram_quantile(bounds_, bucket_counts(), q);
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_[name];
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return gauges_[name];
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end())
    it = histograms_
             .emplace(name, std::make_unique<Histogram>(std::move(bounds)))
             .first;
  return *it->second;
}

std::int64_t MetricsRegistry::counter_value(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second.value();
}

double MetricsRegistry::gauge_value(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second.value();
}

std::vector<std::string> MetricsRegistry::counter_names(
    const std::string& prefix) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  for (const auto& [name, c] : counters_)
    if (name.compare(0, prefix.size(), prefix) == 0) names.push_back(name);
  return names;
}

bool MetricsRegistry::empty() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_.empty() && gauges_.empty() && histograms_.empty();
}

void MetricsRegistry::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
  generation_.fetch_add(1, std::memory_order_acq_rel);
}

Counter& CounterRef::get() {
  const std::uint64_t g = reg_.generation();
  if (gen_.load(std::memory_order_acquire) == g)
    return *c_.load(std::memory_order_relaxed);
  Counter* c = &reg_.counter(name_);
  c_.store(c, std::memory_order_relaxed);
  gen_.store(g, std::memory_order_release);
  return *c;
}

Json MetricsRegistry::to_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  Json out = Json::object();
  Json& counters = out["counters"] = Json::object();
  for (const auto& [name, c] : counters_) counters[name] = c.value();
  Json& gauges = out["gauges"] = Json::object();
  for (const auto& [name, g] : gauges_) gauges[name] = g.value();
  Json& hists = out["histograms"] = Json::object();
  for (const auto& [name, h] : histograms_) {
    Json& j = hists[name] = Json::object();
    Json& bounds = j["bounds"] = Json::array();
    for (double b : h->bounds()) bounds.push_back(b);
    Json& counts = j["counts"] = Json::array();
    for (std::int64_t c : h->bucket_counts()) counts.push_back(c);
    j["sum"] = h->sum();
    j["count"] = h->count();
  }
  return out;
}

std::string MetricsRegistry::to_table() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  if (!counters_.empty()) {
    Table t({"counter", "value"});
    for (const auto& [name, c] : counters_)
      t.add_row({name, Table::num(c.value())});
    t.print(os);
  }
  if (!gauges_.empty()) {
    Table t({"gauge", "value"});
    for (const auto& [name, g] : gauges_)
      t.add_row({name, Table::num(g.value(), 6)});
    t.print(os);
  }
  if (!histograms_.empty()) {
    Table t({"histogram", "count", "mean", "p50", "p95", "p99", "buckets"});
    for (const auto& [name, h] : histograms_) {
      std::ostringstream buckets;
      const auto counts = h->bucket_counts();
      for (std::size_t i = 0; i < counts.size(); ++i) {
        if (i) buckets << ' ';
        buckets << counts[i];
      }
      t.add_row({name, Table::num(h->count()), Table::num(h->mean(), 6),
                 Table::num(h->quantile(0.50), 6),
                 Table::num(h->quantile(0.95), 6),
                 Table::num(h->quantile(0.99), 6), buckets.str()});
    }
    t.print(os);
  }
  return os.str();
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

}  // namespace ttlg::telemetry
