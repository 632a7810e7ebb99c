// Benchmark runner: executes a set of transpose backends over cases on
// a fresh simulated device per case, in count-only mode with sampled
// block counting (exact to <0.1% on the timing model, ~100x faster than
// functional execution — correctness is covered by the test suite).
#pragma once

#include <iosfwd>
#include <vector>

#include "baselines/backend.hpp"
#include "benchlib/cases.hpp"

namespace ttlg::bench {

class BenchReport;

struct RunnerOptions {
  bool count_only = true;
  int sampling = 6;
  sim::DeviceProperties props = sim::DeviceProperties::tesla_k40c();
  /// When non-null, every CaseResult is also appended to this report
  /// (not owned; must outlive the Runner).
  BenchReport* report = nullptr;
  /// Host threads for the sweep: backends within a case run
  /// concurrently, each on its own fresh device. Results (and report
  /// rows) stay in backend order, so sweeps are deterministic at any
  /// setting. 0 = auto (TTLG_THREADS / hardware_concurrency), 1 =
  /// serial.
  int num_threads = 0;
};

struct CaseResult {
  std::string case_id;
  std::string backend;
  Index volume = 0;
  Index scaled_rank = 0;
  double plan_s = 0;
  double kernel_s = 0;
  double bw_repeated_gbps = 0;  ///< kernel time only (paper Figs. 6/8/10)
  double bw_single_gbps = 0;    ///< plan + kernel (paper Figs. 7/9/11)
  sim::LaunchCounters counters;
  std::string detail;
};

class Runner {
 public:
  explicit Runner(RunnerOptions opts = {});

  /// Run every backend on one case. Buffers are allocated once per case.
  std::vector<CaseResult> run_case(
      const Case& c, const std::vector<baselines::Backend*>& backends);

  const sim::DeviceProperties& props() const { return opts_.props; }

 private:
  RunnerOptions opts_;
};

/// Header every bench binary prints: the simulated machine configuration
/// (the reproduction's Table III).
void print_machine_header(std::ostream& os,
                          const sim::DeviceProperties& props);

}  // namespace ttlg::bench
