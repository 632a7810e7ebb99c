// Fused batched-launch engine (core/batched_plan.hpp, Plan::
// execute_batched, sim::Device::launch_batched): a batch folded into
// one super-grid dispatch must be BIT-IDENTICAL to N individual
// execute() calls — per-member outputs, every per-member
// LaunchCounters field, and the per-member simulated times — across
// all kernel schemas, element widths and thread counts; aggregate
// counters must be exactly additive. Directed
// tests pin the fallback ladder: a retryable fused failure re-runs the
// per-member loop, and a mid-loop member failure's classified Status
// names the failing member index and the completed count.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/batched_plan.hpp"
#include "core/ttlg.hpp"
#include "gpusim/fault_injector.hpp"
#include "tensor/host_transpose.hpp"

namespace ttlg {
namespace {

template <class T>
void fill_random_elems(Rng& rng, std::vector<T>& v) {
  if constexpr (std::is_integral_v<T>) {
    for (auto& x : v) x = static_cast<T>(rng());
  } else {
    for (auto& x : v)
      x = static_cast<T>(rng.uniform01() * 2048.0 - 1024.0);
  }
}

template <class T>
std::uint64_t bits_of(T v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(T));
  return b;
}

void expect_counters_equal(const sim::LaunchCounters& a,
                           const sim::LaunchCounters& b,
                           const std::string& what) {
  EXPECT_EQ(a.gld_transactions, b.gld_transactions) << what;
  EXPECT_EQ(a.gst_transactions, b.gst_transactions) << what;
  EXPECT_EQ(a.smem_load_ops, b.smem_load_ops) << what;
  EXPECT_EQ(a.smem_store_ops, b.smem_store_ops) << what;
  EXPECT_EQ(a.smem_bank_conflicts, b.smem_bank_conflicts) << what;
  EXPECT_EQ(a.tex_transactions, b.tex_transactions) << what;
  EXPECT_EQ(a.tex_misses, b.tex_misses) << what;
  EXPECT_EQ(a.special_ops, b.special_ops) << what;
  EXPECT_EQ(a.fma_ops, b.fma_ops) << what;
  EXPECT_EQ(a.grid_blocks, b.grid_blocks) << what;
  EXPECT_EQ(a.block_threads, b.block_threads) << what;
  EXPECT_EQ(a.shared_bytes_per_block, b.shared_bytes_per_block) << what;
  EXPECT_EQ(a.barriers, b.barriers) << what;
  EXPECT_EQ(a.payload_bytes, b.payload_bytes) << what;
}

struct Case {
  Extents ext;
  std::vector<Index> perm;
};

// One directed problem per schema of the taxonomy (same set the
// specialization battery pins).
const std::vector<Case>& schema_cases() {
  static const std::vector<Case> cases = {
      {{64, 64, 4}, {0, 1, 2}},               // Copy
      {{64, 16, 16}, {0, 2, 1}},              // FVI-Match-Large
      {{16, 8, 24}, {0, 2, 1}},               // FVI-Match-Small
      {{40, 9, 40}, {2, 1, 0}},               // Orthogonal-Distinct
      {{8, 2, 24, 24, 24}, {2, 1, 3, 0, 4}},  // Orthogonal-Arbitrary
  };
  return cases;
}

constexpr int kMembers = 3;

/// One fused-vs-singles differential at a fixed configuration: build
/// the plan once, run kMembers individual executes, then the same
/// members (fresh output buffers) through the fused engine, and demand
/// bit-identity everywhere.
template <class T>
void run_battery(const Case& c, bool specialize, int nthreads) {
  const Shape shape(c.ext);
  const Permutation perm(c.perm);
  const std::string what =
      shape.to_string() + perm.to_string() + " w" +
      std::to_string(sizeof(T)) + " t" + std::to_string(nthreads) +
      (specialize ? " spec" : " gen");

  sim::Device dev;
  dev.set_num_threads(nthreads);

  PlanOptions opts;
  opts.elem_size = static_cast<int>(sizeof(T));
  opts.specialize = specialize;
  const Plan plan = make_plan(dev, shape, perm, opts);
  ASSERT_FALSE(plan.degraded()) << what;

  std::vector<std::vector<T>> hosts;
  std::vector<sim::DeviceBuffer<T>> ins, outs_single, outs_fused;
  for (int m = 0; m < kMembers; ++m) {
    Rng rng(1217 + static_cast<std::uint64_t>(m));
    std::vector<T> h(static_cast<std::size_t>(shape.volume()));
    fill_random_elems(rng, h);
    ins.push_back(dev.alloc_copy<T>(h));
    outs_single.push_back(dev.alloc<T>(shape.volume()));
    outs_fused.push_back(dev.alloc<T>(shape.volume()));
    hosts.push_back(std::move(h));
  }

  std::vector<sim::LaunchResult> singles;
  for (int m = 0; m < kMembers; ++m)
    singles.push_back(plan.execute<T>(ins[static_cast<std::size_t>(m)],
                                      outs_single[static_cast<std::size_t>(m)]));

  std::vector<std::pair<sim::DeviceBuffer<T>, sim::DeviceBuffer<T>>> batch;
  for (int m = 0; m < kMembers; ++m)
    batch.emplace_back(ins[static_cast<std::size_t>(m)],
                       outs_fused[static_cast<std::size_t>(m)]);
  const BatchedResult res = run_batched<T>(plan, batch);
  EXPECT_TRUE(res.fused) << what;
  ASSERT_EQ(res.per_member.size(), static_cast<std::size_t>(kMembers));
  ASSERT_EQ(res.per_call_s.size(), static_cast<std::size_t>(kMembers));

  sim::LaunchCounters sum;
  double time_sum = 0;
  for (int m = 0; m < kMembers; ++m) {
    const auto mi = static_cast<std::size_t>(m);
    const std::string who = what + " member " + std::to_string(m);
    expect_counters_equal(res.per_member[mi], singles[mi].counters, who);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(res.per_call_s[mi]),
              std::bit_cast<std::uint64_t>(singles[mi].time_s))
        << who;
    // Outputs: bit-identical to the individual execute AND correct
    // against the host oracle (identical-but-wrong must not pass).
    Tensor<T> host_in(shape);
    host_in.vec() = hosts[mi];
    const Tensor<T> expected = host_transpose(host_in, perm);
    for (Index i = 0; i < shape.volume(); ++i) {
      ASSERT_EQ(bits_of<T>(outs_fused[mi][i]), bits_of<T>(outs_single[mi][i]))
          << who << " elem " << i;
      ASSERT_EQ(outs_fused[mi][i], expected.at(i)) << who << " elem " << i;
    }
    sum += singles[mi].counters;
    time_sum += singles[mi].time_s;
  }
  // Exact aggregate additivity over the batch.
  EXPECT_EQ(res.counters.gld_transactions, sum.gld_transactions) << what;
  EXPECT_EQ(res.counters.gst_transactions, sum.gst_transactions) << what;
  EXPECT_EQ(res.counters.tex_transactions, sum.tex_transactions) << what;
  EXPECT_EQ(res.counters.tex_misses, sum.tex_misses) << what;
  EXPECT_EQ(res.counters.grid_blocks, sum.grid_blocks) << what;
  EXPECT_EQ(res.counters.payload_bytes, sum.payload_bytes) << what;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(res.total_time_s),
            std::bit_cast<std::uint64_t>(time_sum))
      << what;
}

class BatchedDifferential : public ::testing::TestWithParam<int> {};

TEST_P(BatchedDifferential, FusedMatchesSinglesBitForBit) {
  const Case& c = schema_cases()[static_cast<std::size_t>(GetParam())];
  for (const bool specialize : {false, true})
    for (const int nthreads : {1, 3, 8}) {
      run_battery<std::uint8_t>(c, specialize, nthreads);
      run_battery<std::uint16_t>(c, specialize, nthreads);
      run_battery<float>(c, specialize, nthreads);
      run_battery<double>(c, specialize, nthreads);
    }
}

INSTANTIATE_TEST_SUITE_P(AllSchemas, BatchedDifferential,
                         ::testing::Range(0, 5));

TEST(BatchedLaunch, BatchOfOneTakesTheLoopPath) {
  sim::Device dev;
  const Shape shape(Extents{16, 8, 24});
  const Permutation perm(std::vector<Index>{0, 2, 1});
  const Plan plan = make_plan(dev, shape, perm);
  Rng rng(5);
  std::vector<double> h(static_cast<std::size_t>(shape.volume()));
  fill_random_elems(rng, h);
  auto in = dev.alloc_copy<double>(h);
  auto out = dev.alloc<double>(shape.volume());
  std::vector<std::pair<sim::DeviceBuffer<double>, sim::DeviceBuffer<double>>>
      batch{{in, out}};
  const BatchedResult res = run_batched<double>(plan, batch);
  EXPECT_FALSE(res.fused);
  EXPECT_EQ(res.per_member.size(), 1u);
}

TEST(BatchedLaunch, RetryableFusedFailureFallsBackToTheLoop) {
  // launch.nth=1: the fused super-grid launch (first launch-site query)
  // fails with kFaultInjected; the per-member loop then runs clean and
  // the batch still completes with correct outputs, unfused.
  sim::Device dev;
  const Shape shape(Extents{64, 16, 16});
  const Permutation perm(std::vector<Index>{0, 2, 1});
  const Plan plan = make_plan(dev, shape, perm);
  std::vector<std::vector<double>> hosts;
  std::vector<std::pair<sim::DeviceBuffer<double>, sim::DeviceBuffer<double>>>
      batch;
  for (int m = 0; m < 3; ++m) {
    Rng rng(99 + static_cast<std::uint64_t>(m));
    std::vector<double> h(static_cast<std::size_t>(shape.volume()));
    fill_random_elems(rng, h);
    batch.emplace_back(dev.alloc_copy<double>(h), dev.alloc<double>(shape.volume()));
    hosts.push_back(std::move(h));
  }
  sim::ScopedFaults faults("launch.nth=1");
  const BatchedResult res = run_batched<double>(plan, batch);
  EXPECT_FALSE(res.fused) << "fused attempt was fault-injected";
  ASSERT_EQ(res.per_member.size(), 3u);
  for (std::size_t m = 0; m < 3; ++m) {
    Tensor<double> host_in(shape);
    host_in.vec() = hosts[m];
    const Tensor<double> expected = host_transpose(host_in, perm);
    for (Index i = 0; i < shape.volume(); ++i)
      ASSERT_EQ(batch[m].second[i], expected.at(i)) << "member " << m;
  }
}

TEST(BatchedLaunch, MidLoopMemberFailureNamesIndexAndProgress) {
  // Route the batch to the loop (launch.nth=1 kills the fused attempt)
  // and fail the loop's second member (launch-site query 3 via
  // every=3). With the plan's own ladder disabled the member error
  // escapes, and the batched wrapper must classify it with the failing
  // member index and the completed count — the partial-result
  // post-mortem contract.
  sim::Device dev;
  const Shape shape(Extents{64, 16, 16});
  const Permutation perm(std::vector<Index>{0, 2, 1});
  PlanOptions opts;
  opts.enable_fallback = false;
  const Plan plan = make_plan(dev, shape, perm, opts);
  std::vector<std::pair<sim::DeviceBuffer<double>, sim::DeviceBuffer<double>>>
      batch;
  for (int m = 0; m < 4; ++m) {
    std::vector<double> h(static_cast<std::size_t>(shape.volume()), 1.0);
    batch.emplace_back(dev.alloc_copy<double>(h),
                       dev.alloc<double>(shape.volume()));
  }
  sim::ScopedFaults faults("launch.nth=1,launch.every=3");
  const auto res = try_run_batched<double>(plan, batch);
  ASSERT_FALSE(res.has_value());
  EXPECT_EQ(res.status().code(), ErrorCode::kFaultInjected);
  const std::string msg = res.status().message();
  EXPECT_NE(msg.find("batched member 1 of 4"), std::string::npos) << msg;
  EXPECT_NE(msg.find("1 member(s) completed"), std::string::npos) << msg;
}

TEST(BatchedLaunch, EmptyBatchIsInvalidArgument) {
  sim::Device dev;
  const Plan plan = make_plan(dev, Shape(Extents{8, 8}),
                              Permutation(std::vector<Index>{1, 0}));
  const std::vector<
      std::pair<sim::DeviceBuffer<double>, sim::DeviceBuffer<double>>>
      batch;
  const auto res = try_run_batched<double>(plan, batch);
  ASSERT_FALSE(res.has_value());
  EXPECT_EQ(res.status().code(), ErrorCode::kInvalidArgument);
}

}  // namespace
}  // namespace ttlg
