// Shared-memory tiled GEMM kernel on the simulated GPU — the "G" of
// TTGT. Operand layouts are exactly what the TTLG transposition stage
// produces:
//   A: m-fastest          addr(i, kk) = kk * M + i
//   B: k-fastest          addr(kk, j) = j * K + kk
//   C: m-fastest          addr(i, j)  = j * M + i
// Both staging tiles are 32x33-padded, loads are fully coalesced, and
// the inner product charges one FMA per element per k-step.
#pragma once

#include "gpusim/device.hpp"

namespace ttlg::ttgt {

struct GemmConfig {
  Index m = 1, n = 1, k = 1;
  Index tiles_m = 1, tiles_n = 1;
  Index grid_blocks = 1;
  int block_threads = 256;

  static GemmConfig make(Index m, Index n, Index k) {
    TTLG_CHECK(m > 0 && n > 0 && k > 0, "GEMM dimensions must be positive");
    GemmConfig c;
    c.m = m;
    c.n = n;
    c.k = k;
    c.tiles_m = (m + 31) / 32;
    c.tiles_n = (n + 31) / 32;
    c.grid_blocks = c.tiles_m * c.tiles_n;
    return c;
  }
};

inline constexpr Index kGemmTilePitch = 33;
inline constexpr Index kGemmSmemElems = 2 * 32 * kGemmTilePitch;

template <class T>
struct GemmKernel {
  GemmConfig cfg;
  sim::DeviceBuffer<T> a;  // M x K, m-fastest
  sim::DeviceBuffer<T> b;  // K x N, k-fastest
  sim::DeviceBuffer<T> c;  // M x N, m-fastest
  T alpha{1};
  T beta{0};

  void operator()(sim::BlockCtx& blk) const {
    const Index ws = sim::kWarpSize;
    const Index tm = blk.block_id() % cfg.tiles_m;
    const Index tn = blk.block_id() / cfg.tiles_m;
    blk.count_special(2);
    const Index mw = std::min<Index>(ws, cfg.m - tm * ws);  // tile width
    const Index nh = std::min<Index>(ws, cfg.n - tn * ws);  // tile height
    const int nwarps = blk.num_warps();
    const Index rows_per_warp = (ws + nwarps - 1) / nwarps;

    // Per-(warp, row) accumulators: warp w owns C rows j = w*rows + jj.
    std::array<sim::LaneValues<T>, 32> acc{};
    for (auto& v : acc) v.fill(T{});

    const Index k_tiles = (cfg.k + ws - 1) / ws;
    constexpr Index kBTile = 32 * kGemmTilePitch;  // B tile offset in smem
    for (Index kt = 0; kt < k_tiles; ++kt) {
      const Index kw = std::min<Index>(ws, cfg.k - kt * ws);

      // Stage A tile: warp per k-row, lanes walk contiguous i.
      for (Index r0 = 0; r0 < kw; r0 += nwarps) {
        for (int w = 0; w < nwarps; ++w) {
          const Index kk = r0 + w;
          if (kk >= kw) break;
          sim::LaneArray ga, sa;
          sim::LaneValues<T> v{};
          ga.fill_run((kt * ws + kk) * cfg.m + tm * ws,
                      static_cast<int>(mw));
          sa.fill_run(kk * kGemmTilePitch, static_cast<int>(mw));
          blk.gld(a, ga, v);
          blk.sst(sa, v);
        }
      }
      // Stage B tile: warp per n-row, lanes walk contiguous kk.
      for (Index r0 = 0; r0 < nh; r0 += nwarps) {
        for (int w = 0; w < nwarps; ++w) {
          const Index j = r0 + w;
          if (j >= nh) break;
          sim::LaneArray ga, sa;
          sim::LaneValues<T> v{};
          ga.fill_run((tn * ws + j) * cfg.k + kt * ws,
                      static_cast<int>(kw));
          sa.fill_run(kBTile + j * kGemmTilePitch, static_cast<int>(kw));
          blk.gld(b, ga, v);
          blk.sst(sa, v);
        }
      }
      blk.sync();

      // Compute: warp w, row j: lanes i accumulate a[kk][i] * b[j][kk].
      for (int w = 0; w < nwarps; ++w) {
        for (Index jj = 0; jj < rows_per_warp; ++jj) {
          const Index j = static_cast<Index>(w) * rows_per_warp + jj;
          if (j >= nh) break;
          for (Index kk = 0; kk < kw; ++kk) {
            sim::LaneArray sa_a, sa_b;
            sim::LaneValues<T> va{}, vb{};
            sa_a.fill_run(kk * kGemmTilePitch, static_cast<int>(mw));
            sa_b.set(0, kBTile + j * kGemmTilePitch + kk);  // warp broadcast
            blk.sld(sa_a, va);
            blk.sld(sa_b, vb);
            blk.count_fma(mw);
            auto& accv = acc[static_cast<std::size_t>(j)];
            for (int l = 0; l < mw; ++l)
              accv[static_cast<std::size_t>(l)] +=
                  va[static_cast<std::size_t>(l)] * vb[0];
          }
        }
      }
      blk.sync();
    }

    // Write C: warp per row, coalesced along m; optional beta read-back.
    for (int w = 0; w < nwarps; ++w) {
      for (Index jj = 0; jj < rows_per_warp; ++jj) {
        const Index j = static_cast<Index>(w) * rows_per_warp + jj;
        if (j >= nh) break;
        sim::LaneArray ga;
        ga.fill_run((tn * ws + j) * cfg.m + tm * ws, static_cast<int>(mw));
        auto v = acc[static_cast<std::size_t>(j)];
        if (beta != T{0}) {
          sim::LaneValues<T> old{};
          blk.gld(c, ga, old);
          for (int l = 0; l < mw; ++l)
            v[static_cast<std::size_t>(l)] =
                alpha * v[static_cast<std::size_t>(l)] +
                beta * old[static_cast<std::size_t>(l)];
        } else if (alpha != T{1}) {
          for (int l = 0; l < mw; ++l)
            v[static_cast<std::size_t>(l)] *= alpha;
        }
        blk.gst(c, ga, v);
      }
    }
  }
};

/// Launch the tiled GEMM: C = alpha * A x B + beta * C.
template <class T>
sim::LaunchResult launch_gemm(sim::Device& dev, const GemmConfig& cfg,
                              sim::DeviceBuffer<T> a, sim::DeviceBuffer<T> b,
                              sim::DeviceBuffer<T> c, T alpha = T{1},
                              T beta = T{0}) {
  TTLG_CHECK(a.size() == cfg.m * cfg.k && b.size() == cfg.k * cfg.n &&
                 c.size() == cfg.m * cfg.n,
             "GEMM buffer sizes do not match the configuration");
  sim::LaunchConfig lc;
  lc.elem_size = sizeof(T);
  lc.grid_blocks = cfg.grid_blocks;
  lc.block_threads = cfg.block_threads;
  lc.shared_elems = kGemmSmemElems;
  lc.kernel_name = "ttgt_gemm";
  // Remainder tiles along m and n are the partial chunks.
  lc.classes = {cfg.tiles_m, cfg.m % 32 != 0, cfg.tiles_n, cfg.n % 32 != 0};
  return dev.launch(GemmKernel<T>{cfg, a, b, c, alpha, beta}, lc);
}

}  // namespace ttlg::ttgt
