// Extension: fused batched-launch amortization. The same plan applied
// to B small tensors as B individual execute() calls vs ONE fused
// super-grid dispatch (core/batched_plan.hpp). The fused path pays the
// thread-pool dispatch/teardown once per batch instead of once per
// member — and a batch of tiny grids is big enough to parallelize
// where each member alone is not — so amortized wall time per member
// must drop hard as B grows. Every sweep point first verifies the
// fused outputs and per-member counters bit-identical to the loop
// (nonzero exit on any divergence: a fast-but-wrong fuse must never
// land in the trajectory).
//
// Emits the fused sweep as BENCH_batched_launch.json and the per-call
// loop sweep — the SAME bench name and case ids — to --baseline-out
// (default results/baselines/BENCH_batched_launch.json), which the CI
// speedup gate feeds to perfdiff --min-geomean-speedup.
//
// Flags: --csv  --reps N  --baseline-out PATH
#include <cstring>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "benchlib/report.hpp"
#include "benchlib/runner.hpp"
#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "core/batched_plan.hpp"

using namespace ttlg;

namespace {

struct SweepPoint {
  Extents ext;
  std::vector<Index> perm;
  int batch;
};

struct Measured {
  double loop_ms = 0;   ///< best-of-reps wall time for the whole batch
  double fused_ms = 0;
  bool identical = true;
};

bool counters_equal(const sim::LaunchCounters& a,
                    const sim::LaunchCounters& b) {
  return a.gld_transactions == b.gld_transactions &&
         a.gst_transactions == b.gst_transactions &&
         a.smem_load_ops == b.smem_load_ops &&
         a.smem_store_ops == b.smem_store_ops &&
         a.smem_bank_conflicts == b.smem_bank_conflicts &&
         a.tex_transactions == b.tex_transactions &&
         a.tex_misses == b.tex_misses && a.special_ops == b.special_ops &&
         a.grid_blocks == b.grid_blocks &&
         a.block_threads == b.block_threads &&
         a.barriers == b.barriers && a.payload_bytes == b.payload_bytes;
}

Measured run_point(const SweepPoint& p, int reps) {
  const Shape shape(p.ext);
  const Permutation perm(p.perm);
  sim::Device dev;
  const Plan plan = make_plan(dev, shape, perm);

  std::vector<std::pair<sim::DeviceBuffer<double>, sim::DeviceBuffer<double>>>
      batch;
  std::vector<sim::DeviceBuffer<double>> outs_loop;
  Rng rng(4241);
  std::vector<double> h(static_cast<std::size_t>(shape.volume()));
  for (int m = 0; m < p.batch; ++m) {
    for (auto& x : h) x = rng.uniform01() * 512.0 - 256.0;
    batch.emplace_back(dev.alloc_copy<double>(h),
                       dev.alloc<double>(shape.volume()));
    outs_loop.push_back(dev.alloc<double>(shape.volume()));
  }

  // Differential first: fused vs loop must be bit-identical in outputs
  // and per-member counters, and exactly additive in aggregate.
  Measured m;
  std::vector<sim::LaunchResult> singles;
  for (int i = 0; i < p.batch; ++i)
    singles.push_back(plan.execute<double>(batch[static_cast<std::size_t>(i)].first,
                                           outs_loop[static_cast<std::size_t>(i)]));
  const BatchedResult fused = run_batched<double>(plan, batch);
  if (p.batch >= 2 && !fused.fused) m.identical = false;
  sim::LaunchCounters sum;
  for (int i = 0; i < p.batch; ++i) {
    const auto mi = static_cast<std::size_t>(i);
    if (!counters_equal(fused.per_member[mi], singles[mi].counters))
      m.identical = false;
    if (std::memcmp(batch[mi].second.data(), outs_loop[mi].data(),
                    static_cast<std::size_t>(shape.volume()) *
                        sizeof(double)) != 0)
      m.identical = false;
    sum += singles[mi].counters;
  }
  if (fused.counters.gld_transactions != sum.gld_transactions ||
      fused.counters.gst_transactions != sum.gst_transactions ||
      fused.counters.grid_blocks != sum.grid_blocks)
    m.identical = false;

  // Timed sweeps: best-of-reps over the whole batch. Each round times
  // the loop and then the fused launch, so a change in host speed during
  // the sweep reaches both paths alike instead of deciding the ratio.
  m.loop_ms = 1e300;
  m.fused_ms = 1e300;
  for (int r = 0; r < reps; ++r) {
    WallTimer loop;
    for (auto& [in, out] : batch) plan.execute<double>(in, out);
    m.loop_ms = std::min(m.loop_ms, loop.seconds() * 1e3);
    WallTimer fused;
    run_batched<double>(plan, batch);
    m.fused_ms = std::min(m.fused_ms, fused.seconds() * 1e3);
  }
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const int reps = static_cast<int>(cli.get_int("reps", 5));
  const std::string baseline_out =
      cli.get("baseline-out", "results/baselines/BENCH_batched_launch.json");
  std::cout << "# Extension: fused batched-launch amortization "
               "(loop vs super-grid fuse)\n";

  const std::vector<std::pair<Extents, std::vector<Index>>> problems = {
      {{8, 8, 4}, {2, 0, 1}},      // v256: dispatch overhead dominates
      {{16, 8, 8}, {2, 0, 1}},     // v1024
      {{16, 16, 16}, {0, 2, 1}},   // v4096
      {{32, 32, 16}, {2, 1, 0}},   // v16384
  };
  const int batches[] = {1, 4, 16, 64, 256};

  bench::BenchReport fused_report("batched_launch",
                                  sim::DeviceProperties::tesla_k40c());
  bench::BenchReport loop_report("batched_launch",
                                 sim::DeviceProperties::tesla_k40c());
  fused_report.set_config("reps", telemetry::Json(reps));
  loop_report.set_config("reps", telemetry::Json(reps));
  loop_report.set_config("path", telemetry::Json("per-call loop"));
  fused_report.set_config("path", telemetry::Json("fused super-grid"));

  Table t({"volume", "batch", "loop_ms", "fused_ms", "speedup",
           "us_per_member"});
  bool all_identical = true;
  for (const auto& [ext, perm] : problems) {
    const Index volume = Shape(ext).volume();
    for (const int b : batches) {
      const Measured m = run_point({ext, perm, b}, reps);
      all_identical = all_identical && m.identical;
      const std::string id =
          "v" + std::to_string(volume) + "/b" + std::to_string(b);
      t.add_row({Table::num(volume), Table::num(static_cast<std::int64_t>(b)),
                 Table::num(m.loop_ms, 3),
                 Table::num(m.fused_ms, 3),
                 Table::num(m.loop_ms / m.fused_ms, 2),
                 Table::num(m.fused_ms * 1e3 / b, 2)});
      auto fj = telemetry::Json::object();
      fj["id"] = id;
      fj["actual_ms"] = m.fused_ms;
      fj["batch"] = b;
      fj["volume"] = volume;
      fused_report.add_case_json(std::move(fj));
      auto lj = telemetry::Json::object();
      lj["id"] = id;
      lj["actual_ms"] = m.loop_ms;
      lj["batch"] = b;
      lj["volume"] = volume;
      loop_report.add_case_json(std::move(lj));
    }
  }
  if (cli.get_bool("csv")) {
    t.print_csv(std::cout);
  } else {
    t.print(std::cout);
  }
  std::cout << "\nWrote machine-readable report: " << fused_report.write()
            << "\nWrote loop baseline: " << loop_report.write(baseline_out)
            << "\n";
  if (!all_identical) {
    std::cerr << "FAIL: fused batch diverged from the per-call loop "
                 "(outputs or counters)\n";
    return 1;
  }
  std::cout << "\n# Fused and loop paths verified bit-identical at every "
               "sweep point.\n";
  return 0;
}
