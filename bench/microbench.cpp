// Host-side microbenchmarks (google-benchmark): planning cost (the
// single-use overhead of Figs. 7/9/11), index fusion, the host reference
// transpose, raw simulator throughput, and dedicated per-schema
// execution hot-path benchmarks (BM_Execute*) used by the CI perf gate.
//
// Unlike the other bench targets this one has a custom main: it runs
// the registered benchmarks through a capturing reporter and writes
// results/BENCH_microbench.json (honouring TTLG_BENCH_JSON_DIR). The
// hot-path regression gate is tools/perfdiff over two such reports
// (see scripts/ci.sh); this binary only measures.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/ttlg.hpp"
#include "telemetry/json.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"

namespace {

using namespace ttlg;

void BM_IndexFusion(benchmark::State& state) {
  const Shape shape({16, 16, 16, 16, 16, 16});
  const Permutation perm({0, 2, 5, 1, 4, 3});
  for (auto _ : state) {
    benchmark::DoNotOptimize(fuse_indices(shape, perm));
  }
}
BENCHMARK(BM_IndexFusion);

void BM_MakePlan6D(benchmark::State& state) {
  const Shape shape({16, 16, 16, 16, 16, 16});
  const Permutation perm({4, 1, 2, 5, 3, 0});
  sim::Device dev;
  for (auto _ : state) {
    Plan plan = make_plan(dev, shape, perm);
    benchmark::DoNotOptimize(plan.predicted_time_s());
  }
}
BENCHMARK(BM_MakePlan6D);

// The stride-program compile alone (Plan::finalize_specialization), the
// part of make_plan that single-use calls pay on top of kernel selection.
// Arg 0: an Orthogonal-Distinct plan that compiles to the affine_bulk
// tier; arg 1: an Orthogonal-Arbitrary plan that compiles to templated.
void BM_SpecCompile6D(benchmark::State& state) {
  struct Case {
    std::vector<Index> perm;
    Schema schema;
    SpecTier tier;
  };
  static const Case kCases[] = {
      {{5, 0, 2, 3, 4, 1}, Schema::kOrthogonalDistinct, SpecTier::kAffineBulk},
      {{1, 2, 5, 0, 3, 4}, Schema::kOrthogonalArbitrary, SpecTier::kTemplated},
  };
  const Case& c = kCases[state.range(0)];
  sim::Device dev;
  PlanOptions opts;
  opts.specialize = false;
  Plan plan = make_plan(dev, Shape({16, 16, 16, 16, 16, 16}),
                        Permutation(c.perm), opts);
  plan.finalize_specialization(true);
  if (plan.schema() != c.schema || plan.specialization_tier() != c.tier) {
    state.SkipWithError(("expected " + to_string(c.schema) + "/" +
                         to_string(c.tier) + ", got " +
                         to_string(plan.schema()) + "/" +
                         to_string(plan.specialization_tier()))
                            .c_str());
    return;
  }
  for (auto _ : state) {
    plan.finalize_specialization(true);
    benchmark::DoNotOptimize(plan.specialization_tier());
  }
}
BENCHMARK(BM_SpecCompile6D)->Arg(0)->Arg(1);

void BM_PredictTransposeTime(benchmark::State& state) {
  const Shape shape({32, 32, 32, 32});
  const Permutation perm({3, 1, 0, 2});
  const auto props = sim::DeviceProperties::tesla_k40c();
  for (auto _ : state) {
    benchmark::DoNotOptimize(predict_transpose_time(props, shape, perm));
  }
}
BENCHMARK(BM_PredictTransposeTime);

void BM_HostTranspose(benchmark::State& state) {
  const Index n = state.range(0);
  const Shape shape({n, n, n});
  const Permutation perm({2, 0, 1});
  Tensor<double> in(shape), out(perm.apply(shape));
  in.fill_iota();
  for (auto _ : state) {
    host_transpose(std::span<const double>(in.vec()),
                   std::span<double>(out.vec()), shape, perm);
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          shape.volume() * 16);
}
BENCHMARK(BM_HostTranspose)->Arg(32)->Arg(64)->Arg(128);

void BM_SimulatorFunctional(benchmark::State& state) {
  const Shape shape({64, 32, 64});
  const Permutation perm({2, 1, 0});
  sim::Device dev;
  auto in = dev.alloc<double>(shape.volume());
  auto out = dev.alloc<double>(shape.volume());
  Plan plan = make_plan(dev, shape, perm);
  for (auto _ : state) {
    benchmark::DoNotOptimize(plan.execute<double>(in, out).time_s);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          shape.volume() * 16);
}
BENCHMARK(BM_SimulatorFunctional);

void BM_SimulatorCountSampled(benchmark::State& state) {
  const Shape shape({64, 32, 64});
  const Permutation perm({2, 1, 0});
  sim::Device dev;
  auto in = dev.alloc_virtual<double>(shape.volume());
  auto out = dev.alloc_virtual<double>(shape.volume());
  Plan plan = make_plan(dev, shape, perm);
  dev.set_mode(sim::ExecMode::kCountOnly);
  dev.set_sampling(6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(plan.execute<double>(in, out).time_s);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          shape.volume() * 16);
}
BENCHMARK(BM_SimulatorCountSampled);

// ---------------------------------------------------------------------------
// Per-schema execution hot paths (the CI perf-gate set). Each pins the
// device to one host thread so the numbers measure the per-block decode
// + access-pattern-analysis hot loop, not the thread pool. The schema
// assertion keeps the benchmark honest: if a planner change reroutes
// the shape to a different kernel the case errors out instead of
// silently timing the wrong path.

struct HotPath {
  Extents ext;
  std::vector<Index> perm;
  Schema schema;
};

const HotPath& od_case() {
  static const HotPath c{{96, 9, 96}, {2, 1, 0}, Schema::kOrthogonalDistinct};
  return c;
}
const HotPath& oa_case() {
  static const HotPath c{{8, 2, 24, 24, 24},
                         {2, 1, 3, 0, 4},
                         Schema::kOrthogonalArbitrary};
  return c;
}
const HotPath& fvi_small_case() {
  static const HotPath c{{16, 8, 96}, {0, 2, 1}, Schema::kFviMatchSmall};
  return c;
}
const HotPath& fvi_large_case() {
  static const HotPath c{{64, 32, 32}, {0, 2, 1}, Schema::kFviMatchLarge};
  return c;
}

void run_functional(benchmark::State& state, const HotPath& hp,
                    bool specialize = true) {
  const Shape shape(hp.ext);
  const Permutation perm(hp.perm);
  sim::Device dev;
  dev.set_num_threads(1);
  auto in = dev.alloc<double>(shape.volume());
  auto out = dev.alloc<double>(shape.volume());
  PlanOptions opts;
  opts.specialize = specialize;
  Plan plan = make_plan(dev, shape, perm, opts);
  if (plan.schema() != hp.schema) {
    state.SkipWithError(("expected schema " + to_string(hp.schema) +
                         ", planner chose " + to_string(plan.schema()))
                            .c_str());
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(plan.execute<double>(in, out).time_s);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          shape.volume() * 16);
}

void run_count_only(benchmark::State& state, const HotPath& hp,
                    bool specialize = true) {
  const Shape shape(hp.ext);
  const Permutation perm(hp.perm);
  sim::Device dev;
  dev.set_num_threads(1);
  auto in = dev.alloc_virtual<double>(shape.volume());
  auto out = dev.alloc_virtual<double>(shape.volume());
  PlanOptions opts;
  opts.specialize = specialize;
  Plan plan = make_plan(dev, shape, perm, opts);
  if (plan.schema() != hp.schema) {
    state.SkipWithError(("expected schema " + to_string(hp.schema) +
                         ", planner chose " + to_string(plan.schema()))
                            .c_str());
    return;
  }
  dev.set_mode(sim::ExecMode::kCountOnly);  // full grid, no sampling
  for (auto _ : state) {
    benchmark::DoNotOptimize(plan.execute<double>(in, out).time_s);
  }
}

void BM_ExecuteOD_Functional(benchmark::State& state) {
  run_functional(state, od_case());
}
BENCHMARK(BM_ExecuteOD_Functional);

void BM_ExecuteOD_CountOnly(benchmark::State& state) {
  run_count_only(state, od_case());
}
BENCHMARK(BM_ExecuteOD_CountOnly);

void BM_ExecuteOA_Functional(benchmark::State& state) {
  run_functional(state, oa_case());
}
BENCHMARK(BM_ExecuteOA_Functional);

void BM_ExecuteOA_CountOnly(benchmark::State& state) {
  run_count_only(state, oa_case());
}
BENCHMARK(BM_ExecuteOA_CountOnly);

void BM_ExecuteFviSmall_CountOnly(benchmark::State& state) {
  run_count_only(state, fvi_small_case());
}
BENCHMARK(BM_ExecuteFviSmall_CountOnly);

void BM_ExecuteFviLarge_CountOnly(benchmark::State& state) {
  run_count_only(state, fvi_large_case());
}
BENCHMARK(BM_ExecuteFviLarge_CountOnly);

// ---------------------------------------------------------------------------
// Specialization ablation (BM_Ablate*): the same hot paths planned with
// plan-time specialization disabled, so the generic kernels carry the
// launch. The report pairs each BM_Execute case with its BM_Ablate
// twin and emits the specialized-vs-generic speedup as an explicit
// column. Deliberately OUTSIDE the kGatePrefix set: the ablation
// quantifies the optimization, the gate polices the optimized path.

void BM_AblateOD_Functional(benchmark::State& state) {
  run_functional(state, od_case(), /*specialize=*/false);
}
BENCHMARK(BM_AblateOD_Functional);

void BM_AblateOD_CountOnly(benchmark::State& state) {
  run_count_only(state, od_case(), /*specialize=*/false);
}
BENCHMARK(BM_AblateOD_CountOnly);

void BM_AblateOA_Functional(benchmark::State& state) {
  run_functional(state, oa_case(), /*specialize=*/false);
}
BENCHMARK(BM_AblateOA_Functional);

void BM_AblateOA_CountOnly(benchmark::State& state) {
  run_count_only(state, oa_case(), /*specialize=*/false);
}
BENCHMARK(BM_AblateOA_CountOnly);

void BM_AblateFviSmall_CountOnly(benchmark::State& state) {
  run_count_only(state, fvi_small_case(), /*specialize=*/false);
}
BENCHMARK(BM_AblateFviSmall_CountOnly);

void BM_AblateFviLarge_CountOnly(benchmark::State& state) {
  run_count_only(state, fvi_large_case(), /*specialize=*/false);
}
BENCHMARK(BM_AblateFviLarge_CountOnly);

// Telemetry overhead guard for the Fig. 12 repeated-use hot path: a
// cached plan executed in count-only mode, with telemetry off (Arg 0)
// vs counters (Arg 1) vs trace (Arg 2). The acceptance bar is that the
// off path stays within noise (<2%) of the pre-telemetry baseline —
// every instrumentation site must cost one branch when disabled.
void BM_RepeatedExecuteTelemetry(benchmark::State& state) {
  const telemetry::ScopedLevel scoped(
      static_cast<telemetry::Level>(state.range(0)));
  const Shape shape({16, 16, 16, 16, 16, 16});
  const Permutation perm({4, 1, 2, 5, 3, 0});
  sim::Device dev;
  auto in = dev.alloc_virtual<double>(shape.volume());
  auto out = dev.alloc_virtual<double>(shape.volume());
  Plan plan = make_plan(dev, shape, perm);
  dev.set_mode(sim::ExecMode::kCountOnly);
  dev.set_sampling(6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(plan.execute<double>(in, out).time_s);
  }
  telemetry::MetricsRegistry::global().clear();  // don't bloat later runs
  telemetry::TraceCollector::global().clear();
}
BENCHMARK(BM_RepeatedExecuteTelemetry)->Arg(0)->Arg(1)->Arg(2);

// ---------------------------------------------------------------------------
// Custom main: capture per-benchmark timings and emit the
// machine-readable report.

/// The gated hot-path cases (perfdiff --filter BM_Execute in CI). The
/// sub-µs cases (BM_IndexFusion et al.) are reported but not gated — at
/// that scale 20% is indistinguishable from scheduler noise.
constexpr const char kGatePrefix[] = "BM_Execute";

struct CaseTime {
  std::string name;
  double real_time_ns = 0;
  std::int64_t iterations = 0;
};

class CaptureReporter : public benchmark::ConsoleReporter {
 public:
  std::vector<CaseTime> cases;

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& r : runs) {
      if (r.run_type != Run::RT_Iteration || r.error_occurred) continue;
      const double iters = r.iterations > 0
                               ? static_cast<double>(r.iterations)
                               : 1.0;
      cases.push_back({r.benchmark_name(),
                       r.real_accumulated_time / iters * 1e9,
                       static_cast<std::int64_t>(r.iterations)});
    }
    ConsoleReporter::ReportRuns(runs);
  }
};

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  CaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);

  telemetry::Json doc = telemetry::Json::object();
  doc["bench"] = "microbench";
  doc["schema_version"] = 1;
  doc["config"] = telemetry::Json::object();
  doc["config"]["gate_prefix"] = kGatePrefix;

  // Pair each gated hot-path case with its specialization-ablation twin
  // (BM_ExecuteX_Y <-> BM_AblateX_Y, the latter planned with
  // opts.specialize = false) so the report carries the speedup
  // attributable to plan-time specialization as its own column.
  const auto ablation_twin = [&](const std::string& name) -> const CaseTime* {
    if (!starts_with(name, kGatePrefix)) return nullptr;
    const std::string twin =
        "BM_Ablate" + name.substr(std::string(kGatePrefix).size());
    for (const CaseTime& c : reporter.cases)
      if (c.name == twin) return &c;
    return nullptr;
  };

  telemetry::Json jcases = telemetry::Json::array();
  double ablation_log_sum = 0;
  int ablation_n = 0;
  for (const CaseTime& c : reporter.cases) {
    telemetry::Json jc = telemetry::Json::object();
    jc["name"] = c.name;
    jc["real_time_ns"] = c.real_time_ns;
    jc["iterations"] = c.iterations;
    if (const CaseTime* twin = ablation_twin(c.name);
        twin != nullptr && c.real_time_ns > 0 && twin->real_time_ns > 0) {
      jc["generic_real_time_ns"] = twin->real_time_ns;
      const double speedup = twin->real_time_ns / c.real_time_ns;
      jc["specialization_speedup"] = speedup;
      ablation_log_sum += std::log(speedup);
      ++ablation_n;
    }
    jcases.push_back(std::move(jc));
  }
  doc["cases"] = std::move(jcases);
  if (ablation_n > 0) {
    const double geomean = std::exp(ablation_log_sum / ablation_n);
    doc["specialization_geomean_speedup"] = geomean;
    std::cout << "specialization ablation: geomean speedup vs generic "
              << geomean << "x over " << ablation_n << " hot path(s)\n";
  }
  const char* dir = std::getenv("TTLG_BENCH_JSON_DIR");
  const std::string path =
      std::string((dir && *dir) ? dir : ".") + "/BENCH_microbench.json";
  std::ofstream(path) << doc.dump(2) << "\n";
  std::cout << "Wrote machine-readable report: " << path << "\n";
  return 0;
}
