// MetricsRegistry: named counters, gauges, and fixed-bucket histograms,
// exportable as JSON (machine-readable profiles) or as the library's
// text tables. One global registry backs library-wide instrumentation
// (plan cache, planner, simulator); components that want isolated
// aggregation (sim::Profiler) own a private registry instead.
//
// Handles returned by counter()/gauge()/histogram() stay valid until
// clear() — the registries are node-based maps.
//
// Thread safety: Counter, Gauge and Histogram updates are lock-free
// atomics, so handles may be used from any thread concurrently (the
// parallel block-execution engine and concurrent planning depend on
// this). Registry lookups were already serialized by the registry
// mutex.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "telemetry/json.hpp"

namespace ttlg::telemetry {

class Counter {
 public:
  void inc(std::int64_t d = 1) { v_.fetch_add(d, std::memory_order_relaxed); }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  void add(double d) { v_.fetch_add(d, std::memory_order_relaxed); }
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0};
};

/// Quantile estimate from fixed-bucket histogram data: `bounds` are
/// inclusive upper edges, `counts` has bounds.size()+1 entries
/// (overflow last). Linear interpolation inside the owning bucket; the
/// overflow bucket clamps to the last finite bound (0 when there are no
/// bounds). q is clamped to [0,1]; returns 0 for an empty histogram.
/// Free-standing so it works on live histograms and on snapshot files
/// alike (the Prometheus exporter and `ttlg stats --from` reuse it).
double histogram_quantile(const std::vector<double>& bounds,
                          const std::vector<std::int64_t>& counts, double q);

/// Fixed-bucket histogram: `bounds` are the inclusive upper edges of
/// the first bounds.size() buckets; one overflow bucket follows.
///
/// observe() is wait-free on the counts (relaxed per-bucket atomics)
/// and lock-free on the sum (atomic<double> fetch_add); there is no
/// mutex, so observation sites on strength-reduced hot paths pay a few
/// uncontended atomic RMWs. Snapshots (bucket_counts/count/sum) read
/// each atomic individually — per-value accuracy, not a cross-field
/// consistent cut, which is all the exporters ever needed.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds = {});

  void observe(double x);
  const std::vector<double>& bounds() const { return bounds_; }
  /// Snapshot of the per-bucket counts (copy: observers may be
  /// running concurrently).
  std::vector<std::int64_t> bucket_counts() const;
  std::int64_t count() const;
  double sum() const;
  double mean() const;
  /// histogram_quantile() over the current snapshot.
  double quantile(double q) const;

 private:
  std::vector<double> bounds_;
  /// bounds_.size() + 1 slots (overflow last); atomics are not movable,
  /// hence the array indirection.
  std::unique_ptr<std::atomic<std::int64_t>[]> counts_;
  std::atomic<std::int64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

class MetricsRegistry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// `bounds` applies on first creation only; later calls fetch.
  Histogram& histogram(const std::string& name,
                       std::vector<double> bounds = {});

  /// Value lookups that do NOT create the metric; 0 when absent.
  std::int64_t counter_value(const std::string& name) const;
  double gauge_value(const std::string& name) const;

  /// Counter names carrying the given prefix (sorted).
  std::vector<std::string> counter_names(const std::string& prefix = "") const;

  bool empty() const;
  /// Drops every metric; handles obtained before are invalid afterwards.
  void clear();
  /// Bumped by every clear(), so cached handles (CounterRef) can tell
  /// that they must be resolved again.
  std::uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

  /// {"counters": {...}, "gauges": {...}, "histograms": {name:
  ///  {"bounds": [...], "counts": [...], "sum": s, "count": n}}}
  Json to_json() const;
  /// Text rendering: one table per metric kind.
  std::string to_table() const;

  /// The library-wide registry that built-in instrumentation feeds.
  static MetricsRegistry& global();

 private:
  mutable std::mutex mu_;
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  // unique_ptr: Histogram owns atomics and cannot be moved into a map
  // node; the indirection also keeps handle stability explicit.
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::atomic<std::uint64_t> generation_{1};
};

/// A counter handle resolved once and then reused, for always-on call
/// sites that would otherwise build the metric name and take the
/// registry mutex on every event. Lock-free after the first use; it
/// resolves again only after the registry was cleared. Like every
/// handle, it must not be used concurrently with clear().
class CounterRef {
 public:
  CounterRef(MetricsRegistry& reg, std::string name)
      : reg_(reg), name_(std::move(name)) {}

  Counter& get();
  void inc(std::int64_t d = 1) { get().inc(d); }

 private:
  MetricsRegistry& reg_;
  std::string name_;
  std::atomic<Counter*> c_{nullptr};
  /// Registry generation c_ was resolved in (0: not yet resolved).
  std::atomic<std::uint64_t> gen_{0};
};

}  // namespace ttlg::telemetry
