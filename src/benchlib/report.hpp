// Machine-readable benchmark reports: each bench binary can emit a
// BENCH_<name>.json capturing the run configuration (device model,
// sweep parameters), per-case bandwidths with simulator counters, and a
// summary of the telemetry collected during the run (global metrics +
// predicted-vs-measured model accuracy). These files are the repo's
// performance trajectory — commit them from results/.
#pragma once

#include <string>

#include "benchlib/runner.hpp"
#include "telemetry/json.hpp"

namespace ttlg::bench {

class BenchReport {
 public:
  BenchReport(std::string name, const sim::DeviceProperties& props);

  /// Record a sweep/run parameter under "config" (e.g. rank, count_only).
  void set_config(const std::string& key, telemetry::Json value);

  void add_case(const CaseResult& r);

  /// Record an arbitrary case object — for table-style benches (model
  /// fits, ablations, analytic-vs-measured comparisons) whose rows do
  /// not fit the backend-bandwidth CaseResult shape.
  void add_case_json(telemetry::Json c) { cases_.push_back(std::move(c)); }

  const std::string& name() const { return name_; }

  /// Full report: bench name, schema_version, config (device + params),
  /// cases[], plus snapshots of the global metrics registry and model
  /// accuracy report when they are non-empty.
  telemetry::Json to_json() const;

  /// "$TTLG_BENCH_JSON_DIR/BENCH_<name>.json" (dir defaults to ".").
  std::string default_path() const;

  /// Write to an explicit path, or to default_path(); returns the path.
  std::string write(const std::string& path = "") const;

 private:
  std::string name_;
  telemetry::Json config_;  // insertion-ordered object
  telemetry::Json cases_;   // array of per-case objects
};

}  // namespace ttlg::bench
