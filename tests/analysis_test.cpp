// §IV-C analysis: analytic counter formulas must match exact simulator
// measurements on perfect-multiple shapes (the Table I validation) and
// stay close on remainder-laden shapes.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/analysis.hpp"
#include "core/launch_helpers.hpp"
#include "gpusim/coalescing.hpp"

namespace ttlg {
namespace {

struct Measured {
  sim::LaunchCounters analytic;
  sim::LaunchCounters measured;
};

Measured measure_od(const Extents& ext, const std::vector<Index>& perm,
                    const OdSlice& s) {
  const auto p = TransposeProblem::make(Shape(ext), Permutation(perm), 8);
  const OdConfig cfg = build_od_config(p, s);
  sim::Device dev;
  dev.set_mode(sim::ExecMode::kCountOnly);
  auto in = dev.alloc_virtual<double>(p.volume());
  auto out = dev.alloc_virtual<double>(p.volume());
  auto t0 = dev.alloc_copy<Index>(cfg.in_offset);
  auto t1 = dev.alloc_copy<Index>(cfg.out_offset);
  return {analyze_od(p, cfg),
          launch_od<double>(dev, cfg, in, out, t0, t1).counters};
}

TEST(Analysis, TxnsForRun) {
  EXPECT_EQ(txns_for_run(32, 4), 1);   // 128 B
  EXPECT_EQ(txns_for_run(32, 8), 2);   // 256 B
  EXPECT_EQ(txns_for_run(33, 4), 2);
  EXPECT_EQ(txns_for_run(1, 8), 1);
  EXPECT_EQ(txns_for_run(0, 8), 0);
}

/// Per-run reference for build_phase_table: every phase, every run.
std::vector<std::int32_t> brute_force_phase_table(
    const std::vector<RunAccess>& runs, int es, Index txn) {
  std::vector<std::int32_t> table(static_cast<std::size_t>(txn), 0);
  for (Index p = 0; p < txn; ++p) {
    Index sum = 0;
    for (const RunAccess& r : runs) {
      Index ph = (p + r.rel0 * es) % txn;
      if (ph < 0) ph += txn;
      sum += txns_for_run_at_phase(ph, r.nlanes, es, txn);
    }
    table[static_cast<std::size_t>(p)] = static_cast<std::int32_t>(sum);
  }
  return table;
}

TEST(Analysis, PhaseTableMatchesPerRunSum) {
  Rng rng(20260);
  for (const Index txn : {Index{32}, Index{64}, Index{128}}) {
    for (const int es : {1, 2, 4, 8}) {
      for (int trial = 0; trial < 40; ++trial) {
        std::vector<RunAccess> runs(rng.uniform(1, 300));
        for (RunAccess& r : runs) {
          r.rel0 = static_cast<Index>(rng.uniform(0, 20000)) - 10000;
          r.nlanes = static_cast<Index>(rng.uniform(1, 32));
        }
        ASSERT_EQ(build_phase_table(runs, es, txn),
                  brute_force_phase_table(runs, es, txn))
            << "txn " << txn << " elem " << es << " trial " << trial;
      }
    }
  }
  EXPECT_TRUE(build_phase_table({}, 8, 128).empty());
}

TEST(Analysis, PhaseTableAgreesWithRunTransactionCount) {
  // table[base % txn] is the transaction count the coalescer charges
  // for the same runs at an absolute base address.
  const std::vector<RunAccess> runs = {{-3, 32}, {0, 1}, {45, 17}, {7, 32}};
  for (const int es : {1, 2, 4, 8}) {
    const auto table = build_phase_table(runs, es, 128);
    for (std::int64_t base = 4096; base < 4096 + 256; base += es) {
      std::int64_t want = 0;
      for (const RunAccess& r : runs)
        want += sim::count_run_transactions(base + r.rel0 * es, r.nlanes, es,
                                            128);
      EXPECT_EQ(table[static_cast<std::size_t>(base % 128)], want)
          << "elem " << es << " base " << base;
    }
  }
}

TEST(Analysis, OdExactOnPerfectShapes) {
  const auto m = measure_od({64, 32, 64}, {2, 1, 0},
                            OdSlice{1, 1, 64, 64, 64, 64});
  EXPECT_EQ(m.analytic.gld_transactions, m.measured.gld_transactions);
  EXPECT_EQ(m.analytic.gst_transactions, m.measured.gst_transactions);
  EXPECT_EQ(m.analytic.smem_load_ops, m.measured.smem_load_ops);
  EXPECT_EQ(m.analytic.smem_store_ops, m.measured.smem_store_ops);
  EXPECT_EQ(m.analytic.tex_transactions, m.measured.tex_transactions);
  EXPECT_EQ(m.analytic.special_ops, m.measured.special_ops);
}

TEST(Analysis, OdCloseOnRemainderShapes) {
  const auto m = measure_od({70, 10, 50}, {2, 1, 0},
                            OdSlice{1, 1, 32, 32, 32, 32});
  // Remainder shapes involve misaligned runs; the analytic lower bound
  // must stay within ~30% of the measurement.
  const double ratio =
      static_cast<double>(m.measured.dram_transactions()) /
      static_cast<double>(m.analytic.dram_transactions());
  EXPECT_GE(ratio, 1.0);
  EXPECT_LE(ratio, 1.35);
  // On-chip op counts are exact even with remainders.
  EXPECT_EQ(m.analytic.smem_load_ops, m.measured.smem_load_ops);
  EXPECT_EQ(m.analytic.smem_store_ops, m.measured.smem_store_ops);
}

TEST(Analysis, FviSmallExactOnPerfectShapes) {
  const auto p = TransposeProblem::make(Shape({16, 64, 64}),
                                        Permutation({0, 2, 1}), 8);
  const auto cfg = build_fvi_small_config(p, 4, false);
  sim::Device dev;
  dev.set_mode(sim::ExecMode::kCountOnly);
  auto in = dev.alloc_virtual<double>(p.volume());
  auto out = dev.alloc_virtual<double>(p.volume());
  const auto run = launch_fvi_small<double>(dev, cfg, in, out);
  const auto analytic = analyze_fvi_small(p, cfg);
  EXPECT_EQ(analytic.gld_transactions, run.counters.gld_transactions);
  EXPECT_EQ(analytic.gst_transactions, run.counters.gst_transactions);
  EXPECT_EQ(analytic.smem_load_ops, run.counters.smem_load_ops);
  EXPECT_EQ(analytic.smem_store_ops, run.counters.smem_store_ops);
}

TEST(Analysis, FviLargeExactOnPerfectShapes) {
  const auto p = TransposeProblem::make(Shape({64, 32, 32}),
                                        Permutation({0, 2, 1}), 8);
  const auto cfg = build_fvi_large_config(p, true);
  sim::Device dev;
  dev.set_mode(sim::ExecMode::kCountOnly);
  auto in = dev.alloc_virtual<double>(p.volume());
  auto out = dev.alloc_virtual<double>(p.volume());
  const auto run = launch_fvi_large<double>(dev, cfg, in, out);
  const auto analytic = analyze_fvi_large(p, cfg);
  EXPECT_EQ(analytic.gld_transactions, run.counters.gld_transactions);
  EXPECT_EQ(analytic.gst_transactions, run.counters.gst_transactions);
}

TEST(Analysis, OaDramExactOnPerfectShapes) {
  const auto p = TransposeProblem::make(Shape({8, 4, 32, 16}),
                                        Permutation({2, 1, 3, 0}), 8);
  const OaConfig cfg = build_oa_config(p, OaSlice{2, 4, 2, 32}, false);
  sim::Device dev;
  dev.set_mode(sim::ExecMode::kCountOnly);
  auto in = dev.alloc_virtual<double>(p.volume());
  auto out = dev.alloc_virtual<double>(p.volume());
  auto t0 = dev.alloc_copy<Index>(cfg.input_offset);
  auto t1 = dev.alloc_copy<Index>(cfg.output_offset);
  auto t2 = dev.alloc_copy<Index>(cfg.sm_out_offset);
  const auto run = launch_oa<double>(dev, cfg, in, out, t0, t1, t2);
  const auto analytic = analyze_oa(p, cfg);
  EXPECT_EQ(analytic.gld_transactions, run.counters.gld_transactions);
  EXPECT_EQ(analytic.gst_transactions, run.counters.gst_transactions);
  EXPECT_EQ(analytic.smem_load_ops, run.counters.smem_load_ops);
  EXPECT_EQ(analytic.tex_transactions, run.counters.tex_transactions);
}

TEST(Analysis, OdCyclesFeatureCountsTileActivity) {
  const auto p =
      TransposeProblem::make(Shape({64, 64}), Permutation({1, 0}), 8);
  // One 64x64 slice per block: 4 full tiles x (32+32) cycles, 1 block.
  const OdConfig cfg = build_od_config(p, OdSlice{1, 1, 64, 64, 64, 64});
  EXPECT_DOUBLE_EQ(od_cycles_feature(p, cfg), 4 * 64);
  // Partial tiles weigh less. Blocking 64 by 48 gives chunk classes
  // 48/16 on each side; per-slice tile cycles: f(48,48) = 192,
  // f(48,16) = f(16,48) = 80, f(16,16) = 32, one block each -> 384.
  const OdConfig cfg2 = build_od_config(p, OdSlice{1, 1, 48, 48, 48, 48});
  EXPECT_EQ(cfg2.grid_blocks, 4);
  EXPECT_DOUBLE_EQ(od_cycles_feature(p, cfg2), 384.0);
}

TEST(Analysis, PayloadBytesAlwaysFullTensor) {
  const auto p = TransposeProblem::make(Shape({40, 40}),
                                        Permutation({1, 0}), 8);
  const OdConfig cfg = build_od_config(p, OdSlice{1, 1, 40, 40, 40, 40});
  EXPECT_EQ(analyze_od(p, cfg).payload_bytes, 2 * 1600 * 8);
}

}  // namespace
}  // namespace ttlg
