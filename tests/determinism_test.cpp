// Determinism battery for the parallel block-execution engine: for a
// problem of every schema, the output buffer, every launch counter,
// the simulated time and the model's predicted time must be
// BIT-identical between a 1-thread device and an N-thread device, and
// stable run-to-run at a fixed seed. Measurement-based planning must
// likewise choose the identical plan at every thread count.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "core/measure_plan.hpp"
#include "core/ttlg.hpp"

namespace ttlg {
namespace {

// Everything one run produces that the determinism guarantee covers.
struct RunArtifacts {
  std::vector<std::uint64_t> out_bits;  // output buffer, bit pattern
  sim::LaunchCounters ctr;
  std::uint64_t time_bits = 0;
  std::uint64_t predicted_bits = 0;
  Schema schema = Schema::kCopy;
};

RunArtifacts run_once(const Shape& shape, const Permutation& perm,
                      int nthreads) {
  sim::Device dev;
  dev.set_num_threads(nthreads);
  Tensor<double> host(shape);
  host.fill_random(20260805);
  auto in = dev.alloc_copy<double>(host.vec());
  auto out = dev.alloc<double>(shape.volume());
  Plan plan = make_plan(dev, shape, perm);
  const auto res = plan.execute<double>(in, out);

  RunArtifacts a;
  a.out_bits.reserve(static_cast<std::size_t>(shape.volume()));
  for (Index i = 0; i < shape.volume(); ++i)
    a.out_bits.push_back(std::bit_cast<std::uint64_t>(out[i]));
  a.ctr = res.counters;
  a.time_bits = std::bit_cast<std::uint64_t>(res.time_s);
  a.predicted_bits = std::bit_cast<std::uint64_t>(plan.predicted_time_s());
  a.schema = plan.schema();
  return a;
}

void expect_identical(const RunArtifacts& a, const RunArtifacts& b,
                      const char* what) {
  EXPECT_EQ(a.schema, b.schema) << what;
  EXPECT_EQ(a.out_bits, b.out_bits) << what << ": output buffer differs";
  EXPECT_EQ(a.time_bits, b.time_bits) << what << ": time_s differs";
  EXPECT_EQ(a.predicted_bits, b.predicted_bits)
      << what << ": predicted_time_s differs";
  const sim::LaunchCounters& x = a.ctr;
  const sim::LaunchCounters& y = b.ctr;
  EXPECT_EQ(x.gld_transactions, y.gld_transactions) << what;
  EXPECT_EQ(x.gst_transactions, y.gst_transactions) << what;
  EXPECT_EQ(x.smem_load_ops, y.smem_load_ops) << what;
  EXPECT_EQ(x.smem_store_ops, y.smem_store_ops) << what;
  EXPECT_EQ(x.smem_bank_conflicts, y.smem_bank_conflicts) << what;
  EXPECT_EQ(x.tex_transactions, y.tex_transactions) << what;
  EXPECT_EQ(x.tex_misses, y.tex_misses) << what;  // record-and-replay path
  EXPECT_EQ(x.special_ops, y.special_ops) << what;
  EXPECT_EQ(x.fma_ops, y.fma_ops) << what;
  EXPECT_EQ(x.grid_blocks, y.grid_blocks) << what;
  EXPECT_EQ(x.block_threads, y.block_threads) << what;
  EXPECT_EQ(x.shared_bytes_per_block, y.shared_bytes_per_block) << what;
  EXPECT_EQ(x.barriers, y.barriers) << what;
  EXPECT_EQ(x.payload_bytes, y.payload_bytes) << what;
}

struct SchemaCase {
  Extents ext;
  std::vector<Index> perm;
  Schema expected;
};

// One problem per schema of the taxonomy (extents chosen so the grids
// are large enough for the parallel engine to actually engage).
const std::vector<SchemaCase>& schema_cases() {
  static const std::vector<SchemaCase> cases = {
      {{64, 64, 4}, {0, 1, 2}, Schema::kCopy},
      {{64, 16, 16}, {0, 2, 1}, Schema::kFviMatchLarge},
      {{16, 8, 24}, {0, 2, 1}, Schema::kFviMatchSmall},
      {{40, 9, 40}, {2, 1, 0}, Schema::kOrthogonalDistinct},
      {{8, 2, 24, 24, 24}, {2, 1, 3, 0, 4}, Schema::kOrthogonalArbitrary},
  };
  return cases;
}

TEST(Determinism, SerialAndParallelBitIdenticalForEverySchema) {
  for (const auto& c : schema_cases()) {
    const Shape shape(c.ext);
    const Permutation perm(c.perm);
    const RunArtifacts serial = run_once(shape, perm, 1);
    ASSERT_EQ(serial.schema, c.expected)
        << shape.to_string() << perm.to_string();
    for (int nthreads : {2, 4, 8}) {
      const RunArtifacts par = run_once(shape, perm, nthreads);
      expect_identical(serial, par,
                       (to_string(c.expected) + " @" +
                        std::to_string(nthreads) + " threads")
                           .c_str());
    }
  }
}

TEST(Determinism, RunToRunStableAtFixedThreadCount) {
  // Nondeterministic chunk arrival must never leak into results: the
  // same run repeated at the same (fixed) thread count is bit-stable.
  for (const auto& c : schema_cases()) {
    const Shape shape(c.ext);
    const Permutation perm(c.perm);
    const RunArtifacts first = run_once(shape, perm, 8);
    for (int rep = 0; rep < 3; ++rep) {
      const RunArtifacts again = run_once(shape, perm, 8);
      expect_identical(first, again, to_string(c.expected).c_str());
    }
  }
}

TEST(Determinism, AutoThreadCountMatchesSerial) {
  // The default knob (0 = auto/hardware concurrency) is covered too —
  // that is what library users actually run.
  for (const auto& c : schema_cases()) {
    const Shape shape(c.ext);
    const Permutation perm(c.perm);
    expect_identical(run_once(shape, perm, 1), run_once(shape, perm, 0),
                     to_string(c.expected).c_str());
  }
}

TEST(Determinism, MeasuredPlanChoiceIndependentOfThreadCount) {
  // make_plan_measured reduces candidate measurements in enumeration
  // order, so the chosen plan is identical at every thread count.
  for (auto [ext, perm_v] :
       std::vector<std::pair<Extents, std::vector<Index>>>{
           {{16, 16, 16, 16, 16}, {4, 2, 0, 1, 3}},
           {{27, 27, 27, 27}, {3, 1, 0, 2}},
       }) {
    const Shape shape(ext);
    const Permutation perm(perm_v);
    sim::Device dev;
    dev.set_mode(sim::ExecMode::kCountOnly);
    dev.set_sampling(4);
    auto in = dev.alloc_virtual<double>(shape.volume());
    auto out = dev.alloc_virtual<double>(shape.volume());

    PlanOptions serial_opts;
    serial_opts.num_threads = 1;
    Plan p1 = make_plan_measured(dev, shape, perm, serial_opts);
    const auto r1 = p1.execute<double>(in, out);
    for (int nthreads : {2, 8}) {
      PlanOptions opts;
      opts.num_threads = nthreads;
      Plan pn = make_plan_measured(dev, shape, perm, opts);
      EXPECT_EQ(pn.schema(), p1.schema()) << nthreads << " threads";
      EXPECT_EQ(std::bit_cast<std::uint64_t>(pn.predicted_time_s()),
                std::bit_cast<std::uint64_t>(p1.predicted_time_s()))
          << nthreads << " threads";
      EXPECT_EQ(pn.describe(), p1.describe()) << nthreads << " threads";
      const auto rn = pn.execute<double>(in, out);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(rn.time_s),
                std::bit_cast<std::uint64_t>(r1.time_s))
          << nthreads << " threads";
      EXPECT_EQ(rn.counters.dram_transactions(),
                r1.counters.dram_transactions())
          << nthreads << " threads";
    }
  }
}

}  // namespace
}  // namespace ttlg
