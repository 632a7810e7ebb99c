// Class-sampled counting is the benchmark harness's core speed trick;
// this suite validates its accuracy against full count-only execution
// for every kernel, on remainder-heavy shapes where block classes
// actually differ.
#include <gtest/gtest.h>

#include "core/naive_fallback.hpp"
#include "core/ttlg.hpp"
#include "ttgt/gemm_kernel.hpp"

namespace ttlg {
namespace {

struct SampledVsFull {
  sim::LaunchResult full;
  sim::LaunchResult sampled;
};

SampledVsFull run_both(const Extents& ext, const std::vector<Index>& perm_v) {
  const Shape shape(ext);
  const Permutation perm(perm_v);
  sim::Device dev;
  dev.set_mode(sim::ExecMode::kCountOnly);
  auto in = dev.alloc_virtual<double>(shape.volume());
  auto out = dev.alloc_virtual<double>(shape.volume());
  Plan plan = make_plan(dev, shape, perm);
  SampledVsFull r;
  r.full = plan.execute<double>(in, out);
  dev.set_sampling(8);
  r.sampled = plan.execute<double>(in, out);
  return r;
}

void expect_close(std::int64_t a, std::int64_t b, double tol,
                  const char* what) {
  if (a == 0 && b == 0) return;
  const double rel = std::abs(static_cast<double>(a - b)) /
                     std::max<double>(1.0, static_cast<double>(b));
  EXPECT_LE(rel, tol) << what << ": sampled " << a << " vs full " << b;
}

class SamplingAccuracy
    : public ::testing::TestWithParam<
          std::pair<Extents, std::vector<Index>>> {};

TEST_P(SamplingAccuracy, CountersWithinTolerance) {
  const auto& [ext, perm] = GetParam();
  const auto r = run_both(ext, perm);
  // On big benchmark grids sampling is exact to <0.1%; these tiny
  // remainder-heavy grids are the worst case (few blocks per class,
  // per-block misalignment variance), so allow a few percent.
  expect_close(r.sampled.counters.gld_transactions,
               r.full.counters.gld_transactions, 0.05, "gld");
  expect_close(r.sampled.counters.gst_transactions,
               r.full.counters.gst_transactions, 0.05, "gst");
  expect_close(r.sampled.counters.smem_load_ops,
               r.full.counters.smem_load_ops, 0.05, "smem_ld");
  expect_close(r.sampled.counters.smem_bank_conflicts,
               r.full.counters.smem_bank_conflicts, 0.08, "conflicts");
  expect_close(r.sampled.counters.special_ops, r.full.counters.special_ops,
               0.05, "special");
  EXPECT_NEAR(r.sampled.time_s, r.full.time_s, r.full.time_s * 0.05);
}

INSTANTIATE_TEST_SUITE_P(
    RemainderShapes, SamplingAccuracy,
    ::testing::Values(
        // OD with remainders on both chunked dims.
        std::pair<Extents, std::vector<Index>>{{70, 10, 50}, {2, 1, 0}},
        // OA with coarsening and partial chunks.
        std::pair<Extents, std::vector<Index>>{{9, 7, 8, 33, 11},
                                               {3, 1, 4, 0, 2}},
        // FVI-Match-Small with remainder chunks.
        std::pair<Extents, std::vector<Index>>{{16, 11, 9, 5}, {0, 2, 1, 3}},
        // FVI-Match-Large with row batching remainder.
        std::pair<Extents, std::vector<Index>>{{64, 13, 31, 9},
                                               {0, 3, 2, 1}},
        // Odd-sized 6D (the Fig. 8 regime).
        std::pair<Extents, std::vector<Index>>{{15, 15, 15, 15, 15},
                                               {4, 1, 2, 0, 3}}));

TEST(SamplingAccuracy, GemmKernelClasses) {
  // Remainder tiles on both m and n.
  const Index m = 40, n = 24, k = 56;
  sim::Device dev;
  dev.set_mode(sim::ExecMode::kCountOnly);
  auto a = dev.alloc_virtual<double>(m * k);
  auto b = dev.alloc_virtual<double>(k * n);
  auto c = dev.alloc_virtual<double>(m * n);
  const auto cfg = ttgt::GemmConfig::make(m, n, k);
  const auto full = ttgt::launch_gemm<double>(dev, cfg, a, b, c);
  dev.set_sampling(4);
  const auto sampled = ttgt::launch_gemm<double>(dev, cfg, a, b, c);
  EXPECT_EQ(sampled.counters.fma_ops, full.counters.fma_ops);
  EXPECT_EQ(sampled.counters.gld_transactions,
            full.counters.gld_transactions);
  EXPECT_NEAR(sampled.time_s, full.time_s, full.time_s * 1e-9);
}

TEST(SamplingAccuracy, NaiveKernelTailClass) {
  // The naive kernel's only distinct block is the partial tail block:
  // its own class, so per-block-invariant counters sample exactly.
  const Shape shape({37, 29, 11});
  const Permutation perm({2, 0, 1});
  ASSERT_NE(shape.volume() % 256, 0);
  const TransposeProblem problem = TransposeProblem::make(shape, perm, 8);
  const NaiveConfig k = build_naive_config(problem);
  sim::Device dev;
  dev.set_mode(sim::ExecMode::kCountOnly);
  auto in = dev.alloc_virtual<double>(shape.volume());
  auto out = dev.alloc_virtual<double>(shape.volume());
  const auto full = launch_naive<double>(dev, k, in, out);
  dev.set_sampling(4);
  const auto sampled = launch_naive<double>(dev, k, in, out);
  EXPECT_EQ(sampled.counters.gld_transactions,
            full.counters.gld_transactions);
  EXPECT_EQ(sampled.counters.special_ops, full.counters.special_ops);
  EXPECT_EQ(sampled.counters.payload_bytes, full.counters.payload_bytes);
  expect_close(sampled.counters.gst_transactions,
               full.counters.gst_transactions, 0.05, "gst");
}

TEST(SamplingAccuracy, SamplingIgnoredInFunctionalMode) {
  // Functional correctness must never be sacrificed: sampling is only
  // honoured in count-only mode.
  const Shape shape({40, 30});
  const Permutation perm({1, 0});
  sim::Device dev;
  dev.set_sampling(2);  // set, but mode stays functional
  Tensor<double> host(shape);
  host.fill_iota();
  auto in = dev.alloc_copy<double>(host.vec());
  auto out = dev.alloc<double>(shape.volume());
  Plan plan = make_plan(dev, shape, perm);
  plan.execute<double>(in, out);
  const Tensor<double> expected = host_transpose(host, perm);
  for (Index i = 0; i < shape.volume(); ++i) ASSERT_EQ(out[i], expected.at(i));
}

}  // namespace
}  // namespace ttlg
