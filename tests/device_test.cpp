#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "gpusim/device.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"

namespace ttlg::sim {
namespace {

/// Toy kernel: each block's warp 0 copies 32 consecutive doubles.
struct CopyBlockKernel {
  DeviceBuffer<double> in, out;
  void operator()(BlockCtx& blk) const {
    LaneArray a;
    LaneValues<double> v{};
    for (int l = 0; l < kWarpSize; ++l)
      a.set(l, blk.block_id() * kWarpSize + l);
    blk.gld(in, a, v);
    blk.gst(out, a, v);
  }
};

TEST(Device, AllocCopyRoundTrip) {
  Device dev;
  std::vector<double> host{1, 2, 3, 4};
  auto buf = dev.alloc_copy<double>(host);
  EXPECT_EQ(buf.size(), 4);
  EXPECT_EQ(buf[2], 3.0);
  EXPECT_GT(buf.base_addr(), 0);
  EXPECT_EQ(dev.bytes_allocated(), 32);
  dev.free(buf);
  EXPECT_EQ(dev.bytes_allocated(), 0);
}

TEST(Device, DistinctBaseAddresses) {
  Device dev;
  auto a = dev.alloc<double>(100);
  auto b = dev.alloc<double>(100);
  EXPECT_NE(a.base_addr(), b.base_addr());
  // Disjoint 256-aligned address ranges.
  EXPECT_EQ(a.base_addr() % 256, 0);
  EXPECT_GE(std::abs(b.base_addr() - a.base_addr()), 800);
}

TEST(Device, DoubleFreeThrows) {
  Device dev;
  auto buf = dev.alloc<float>(8);
  dev.free(buf);
  EXPECT_THROW(dev.free(buf), Error);
  EXPECT_FALSE(dev.try_free(buf));
}

TEST(Device, FreeAllReleasesEverything) {
  Device dev;
  auto a = dev.alloc<double>(10);
  dev.alloc<double>(20);
  dev.free_all();
  EXPECT_EQ(dev.bytes_allocated(), 0);
  EXPECT_FALSE(dev.try_free(a));
}

TEST(Device, LaunchValidation) {
  Device dev;
  auto in = dev.alloc<double>(64);
  auto out = dev.alloc<double>(64);
  LaunchConfig cfg;
  cfg.grid_blocks = 2;

  cfg.block_threads = 0;
  EXPECT_THROW((dev.launch(CopyBlockKernel{in, out}, cfg)), Error);
  cfg.block_threads = 33;  // not a warp multiple
  EXPECT_THROW((dev.launch(CopyBlockKernel{in, out}, cfg)), Error);
  cfg.block_threads = 2048;  // beyond device limit
  EXPECT_THROW((dev.launch(CopyBlockKernel{in, out}, cfg)), Error);
  cfg.block_threads = 32;
  cfg.shared_elems = 1 << 20;  // 8 MB smem
  EXPECT_THROW((dev.launch(CopyBlockKernel{in, out}, cfg)), Error);
  cfg.shared_elems = 0;
  cfg.grid_blocks = 0;
  EXPECT_THROW((dev.launch(CopyBlockKernel{in, out}, cfg)), Error);
}

TEST(Device, FunctionalLaunchMovesDataAndCounts) {
  Device dev;
  std::vector<double> host(64);
  for (std::size_t i = 0; i < host.size(); ++i) host[i] = double(i) * 1.5;
  auto in = dev.alloc_copy<double>(host);
  auto out = dev.alloc<double>(64);
  LaunchConfig cfg;
  cfg.grid_blocks = 2;
  cfg.block_threads = 32;
  const auto res = dev.launch(CopyBlockKernel{in, out}, cfg);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(out[i], host[i]);
  // 2 blocks x (2 ld + 2 st) transactions of 32 aligned doubles.
  EXPECT_EQ(res.counters.gld_transactions, 4);
  EXPECT_EQ(res.counters.gst_transactions, 4);
  EXPECT_EQ(res.counters.payload_bytes, 2 * 64 * 8);
  EXPECT_GT(res.time_s, 0.0);
}

TEST(Device, CountOnlySkipsDataButCounts) {
  Device dev;
  dev.set_mode(ExecMode::kCountOnly);
  auto in = dev.alloc_virtual<double>(64);
  auto out = dev.alloc_virtual<double>(64);
  LaunchConfig cfg;
  cfg.grid_blocks = 2;
  cfg.block_threads = 32;
  const auto res = dev.launch(CopyBlockKernel{in, out}, cfg);
  EXPECT_EQ(res.counters.gld_transactions, 4);
  dev.free(in);  // virtual allocations are tracked and freeable
  dev.free(out);
  EXPECT_EQ(dev.bytes_allocated(), 0);
}

TEST(Device, SampledCountingMatchesFullCounting) {
  Device dev;
  dev.set_mode(ExecMode::kCountOnly);
  auto in = dev.alloc_virtual<double>(32 * 1000);
  auto out = dev.alloc_virtual<double>(32 * 1000);
  LaunchConfig cfg;
  cfg.grid_blocks = 1000;
  cfg.block_threads = 32;
  const auto full = dev.launch(CopyBlockKernel{in, out}, cfg);

  dev.set_sampling(4);
  cfg.classes = ChunkClasses{};  // one chunk, no remainder: all equivalent
  const auto sampled = dev.launch(CopyBlockKernel{in, out}, cfg);
  EXPECT_EQ(sampled.counters.gld_transactions,
            full.counters.gld_transactions);
  EXPECT_EQ(sampled.counters.gst_transactions,
            full.counters.gst_transactions);
  EXPECT_NEAR(sampled.time_s, full.time_s, full.time_s * 1e-6);
}

/// Records the id of every block it runs, warm-up runs included.
struct RecordBlocksKernel {
  std::vector<std::int64_t>* seen;
  void operator()(BlockCtx& blk) const { seen->push_back(blk.block_id()); }
};

TEST(Device, SampledLaunchPicksEvenlySpreadOccurrencesOfEachClass) {
  // Reference: scan the window per class and take the s*n/samples-th
  // occurrence, the first one run twice (warm-up, then sample).
  Rng rng(0x5a3b1e);
  for (int iter = 0; iter < 200; ++iter) {
    const ChunkClasses cc{static_cast<std::int64_t>(rng.uniform(1, 7)),
                          rng.uniform(0, 1) != 0,
                          static_cast<std::int64_t>(rng.uniform(1, 7)),
                          rng.uniform(0, 1) != 0};
    const std::int64_t grid =
        cc.a_chunks * cc.b_chunks * static_cast<std::int64_t>(rng.uniform(1, 4));
    LaunchConfig cfg;
    cfg.block_threads = 32;
    cfg.block_offset = static_cast<std::int64_t>(
        rng.uniform(0, static_cast<std::uint64_t>(grid - 1)));
    cfg.grid_blocks = static_cast<std::int64_t>(
        rng.uniform(1, static_cast<std::uint64_t>(grid - cfg.block_offset)));
    cfg.classes = cc;
    const int sampling = static_cast<int>(rng.uniform(1, 6));
    const std::int64_t lo = cfg.block_offset, hi = lo + cfg.grid_blocks;

    std::vector<std::int64_t> want;
    for (int c = 0; c < ChunkClasses::kCount; ++c) {
      std::vector<std::int64_t> occ;
      for (std::int64_t b = lo; b < hi; ++b) {
        const std::int64_t a = b % cc.a_chunks;
        const std::int64_t bb = b / cc.a_chunks % cc.b_chunks;
        const int cls = (cc.a_partial && a == cc.a_chunks - 1 ? 1 : 0) +
                        (cc.b_partial && bb == cc.b_chunks - 1 ? 2 : 0);
        if (cls == c) occ.push_back(b);
      }
      const std::int64_t n = static_cast<std::int64_t>(occ.size());
      const std::int64_t samples = std::min<std::int64_t>(sampling, n);
      for (std::int64_t s = 0; s < samples; ++s) {
        const std::int64_t b = occ[static_cast<std::size_t>(s * n / samples)];
        if (s == 0) want.push_back(b);
        want.push_back(b);
      }
    }

    Device dev;
    dev.set_mode(ExecMode::kCountOnly);
    dev.set_sampling(sampling);
    std::vector<std::int64_t> seen;
    dev.launch(RecordBlocksKernel{&seen}, cfg);
    ASSERT_EQ(seen, want) << "iter " << iter;
  }
}

// Telemetry of the one block engine: every dispatch — a single launch,
// a batch of one or a fused batch, sampled or not — is one
// `sim.launches` tick and one trace event, and only a dispatch that
// fuses more than one member is named "+batched".
TEST(Device, EachDispatchIsOneLaunchAndOnlyFusedBatchesAreNamedBatched) {
  const telemetry::ScopedLevel scoped(telemetry::Level::kTrace);
  auto& reg = telemetry::MetricsRegistry::global();
  auto& tc = telemetry::TraceCollector::global();
  reg.clear();
  tc.clear();

  // Count-only: fused members share one buffer pair, so a functional
  // run would have them race on the output.
  Device dev;
  dev.set_num_threads(3);
  dev.set_mode(ExecMode::kCountOnly);
  auto in = dev.alloc_virtual<double>(32 * 64);
  auto out = dev.alloc_virtual<double>(32 * 64);
  LaunchConfig cfg;
  cfg.grid_blocks = 64;
  cfg.block_threads = 32;
  cfg.kernel_name = "copy";
  const auto factory = [&](std::int64_t) { return CopyBlockKernel{in, out}; };

  std::vector<std::string> want_names;
  std::int64_t want_blocks = 0;
  const auto expect_dispatch = [&](const char* name, std::int64_t blocks) {
    want_names.push_back(std::string("launch:") + name);
    want_blocks += blocks;
    EXPECT_EQ(reg.counter_value("sim.launches"),
              static_cast<std::int64_t>(want_names.size()));
    EXPECT_EQ(reg.counter_value("sim.blocks"), want_blocks);
  };
  dev.launch(CopyBlockKernel{in, out}, cfg);
  expect_dispatch("copy", 64);
  EXPECT_EQ(dev.launch_batched(factory, cfg, 1).size(), 1u);
  expect_dispatch("copy", 64);
  EXPECT_EQ(dev.launch_batched(factory, cfg, 3).size(), 3u);
  expect_dispatch("copy+batched", 3 * 64);

  // Sampled counting runs per member but is still one dispatch.
  dev.set_sampling(2);
  cfg.classes = ChunkClasses{};
  dev.launch(CopyBlockKernel{in, out}, cfg);
  expect_dispatch("copy", 64);
  dev.launch_batched(factory, cfg, 4);
  expect_dispatch("copy+batched", 4 * 64);

  std::vector<std::string> names;
  for (const auto& ev : tc.events())
    if (ev.cat == "sim") names.push_back(ev.name);
  EXPECT_EQ(names, want_names);
  reg.clear();
  tc.clear();
}

/// Each block texture-loads 32 consecutive offsets starting at a
/// block-dependent element, then copies one warp of payload.
struct TexBlockKernel {
  DeviceBuffer<std::int64_t> offsets;
  DeviceBuffer<double> in, out;
  static std::int64_t first_offset(std::int64_t block) {
    return block * 7 % 40;
  }
  void operator()(BlockCtx& blk) const {
    LaneArray t;
    LaneValues<std::int64_t> o{};
    for (int l = 0; l < kWarpSize; ++l)
      t.set(l, first_offset(blk.block_id()) + l);
    blk.tld(offsets, t, o);
    LaneArray a;
    LaneValues<double> v{};
    for (int l = 0; l < kWarpSize; ++l)
      a.set(l, blk.block_id() * kWarpSize + l);
    blk.gld(in, a, v);
    blk.gst(out, a, v);
  }
};

// A windowed launch with texture capture executes the absolute block
// ids of its window, records every touched texture line in block order
// instead of probing a cache, and reports no misses of its own. The
// capture log and the counters are the same on the serial engine
// (threads 1) and the parallel one (threads 3), and replaying the
// windows' logs through one cache reproduces the full launch's misses.
TEST(Device, WindowedTextureCaptureIsThreadInvariant) {
  constexpr std::int64_t kGrid = 64;
  const std::int64_t windows[][2] = {{0, 24}, {24, kGrid - 24}};
  std::vector<std::int64_t> logs[2][2];
  LaunchCounters ctrs[2][2];
  for (int ti = 0; ti < 2; ++ti) {
    Device dev;
    dev.set_num_threads(ti == 0 ? 1 : 3);
    std::vector<std::int64_t> host_offsets(80);
    auto offsets = dev.alloc_copy<std::int64_t>(host_offsets);
    auto in = dev.alloc<double>(32 * kGrid);
    auto out = dev.alloc<double>(32 * kGrid);
    const TexBlockKernel kernel{offsets, in, out};
    LaunchConfig cfg;
    cfg.grid_blocks = kGrid;
    cfg.block_threads = 32;
    cfg.uses_texture = true;
    const LaunchResult full = dev.launch(kernel, cfg);

    // Expected log: each block's distinct lines, first-touch order.
    const std::int64_t line = dev.props().tex_line_bytes;
    std::vector<std::int64_t> want;
    for (std::int64_t b = 0; b < kGrid; ++b) {
      std::vector<std::int64_t> lines;
      for (int l = 0; l < kWarpSize; ++l) {
        const std::int64_t byte =
            offsets.base_addr() +
            (TexBlockKernel::first_offset(b) + l) *
                static_cast<std::int64_t>(sizeof(std::int64_t));
        const std::int64_t ln = byte / line * line;
        if (std::find(lines.begin(), lines.end(), ln) == lines.end())
          lines.push_back(ln);
      }
      want.insert(want.end(), lines.begin(), lines.end());
    }

    std::vector<std::int64_t> all;
    LaunchCounters sum;
    sum.block_threads = cfg.block_threads;
    for (int w = 0; w < 2; ++w) {
      LaunchConfig wc = cfg;
      wc.block_offset = windows[w][0];
      wc.grid_blocks = windows[w][1];
      wc.tex_capture = &logs[ti][w];
      const LaunchResult r = dev.launch(kernel, wc);
      ctrs[ti][w] = r.counters;
      EXPECT_EQ(r.counters.grid_blocks, windows[w][1]);
      EXPECT_EQ(r.counters.tex_misses, 0) << "capture mode never probes";
      sum += r.counters;
      all.insert(all.end(), logs[ti][w].begin(), logs[ti][w].end());
    }
    EXPECT_EQ(all, want) << "threads " << dev.num_threads();
    TextureCache replay(dev.props().tex_cache_lines, line);
    for (const std::int64_t addr : all)
      if (!replay.access(addr)) ++sum.tex_misses;
    EXPECT_EQ(sum.to_json().dump(), full.counters.to_json().dump());
  }
  for (int w = 0; w < 2; ++w) {
    EXPECT_EQ(logs[0][w], logs[1][w]);
    EXPECT_EQ(ctrs[0][w].to_json().dump(), ctrs[1][w].to_json().dump());
  }
}

}  // namespace
}  // namespace ttlg::sim
