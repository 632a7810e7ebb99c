// Shared pieces of the repository benchmark: run options, the metric
// report, summary statistics, and the in-memory span recorder used by
// the traced run. Every metric names its clock: "wall" is host time
// (std::chrono::steady_clock), "sim" is the modelled K40c (deterministic),
// "count" is an exact event count or ratio.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Host threads the benchmark pins; none is left on "auto". Each launch
/// runs its grid blocks on one device thread: with more, the 4-vCPU host
/// the benchmark was tuned on loses enough time to steal to double the
/// run-to-run spread. The service adds its workers and the generator.
constexpr int kDeviceThreads = 1;
constexpr int kServiceWorkers = 2;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_path;  ///< span dump (traced run only)
  int service_workers = kServiceWorkers;  ///< capped by the host's cores
};

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---- statistics -----------------------------------------------------------

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }
double mean(const std::vector<double>& v);
double sum(const std::vector<double>& v);

// ---- report ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  /// "wall", "sim", "wall+sim" or "count". Every "sim" metric must repeat
  /// bit for bit across runs of the same binary.
  std::string clock;
};

class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit,
              const std::string& clock);
  void config(const std::string& key, const std::string& value);
  /// One attempted operation of the workload; `ok` false counts it failed.
  void attempt(bool ok, const std::string& what = {});
  /// A correctness check that is not itself an operation (for example,
  /// that two ways of planning agree): a failure marks the run incorrect.
  void check(bool ok, const std::string& what);

  bool correct() const { return failed_ == 0 && errors_.empty(); }

  std::string to_json() const;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> config_;
  std::vector<std::string> errors_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

// ---- tracing --------------------------------------------------------------

/// In-memory span recorder: name, start, end and parent of every call the
/// benchmark makes into a layer. Disabled recorders cost one branch per
/// span. Spans are written out at exit; self time is a span's duration
/// minus the time its child spans cover.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// Opens a span now; returns its id (-1 when disabled).
  int begin(const char* name, int parent = -1);
  /// Records a span with explicit bounds (cross-thread spans).
  int record(const char* name, std::int64_t start_ns, std::int64_t end_ns,
             int parent = -1);
  void end(int id);

  /// Self times (ns) of every span with this name.
  std::vector<double> self_ns(const std::string& name) const;
  /// Median self time per span name, in ms.
  std::map<std::string, double> self_ms_p50() const;
  void write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    int parent;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span; `id` is usable as the parent of nested spans.
class Scope {
 public:
  Scope(SpanRecorder& rec, const char* name, int parent = -1)
      : rec_(rec), id(rec.begin(name, parent)) {}
  ~Scope() { rec_.end(id); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanRecorder& rec_;

 public:
  const int id;
};

// ---- process facts ----------------------------------------------------------

double peak_rss_mb();
std::string host_llc_size();

// ---- workloads --------------------------------------------------------------

void run_sweep(const Options& opt, Report& rep, SpanRecorder& rec);
void run_repeated(const Options& opt, Report& rep, SpanRecorder& rec);
void run_service(const Options& opt, Report& rep, SpanRecorder& rec);

}  // namespace perfbench
