// Naive transposition kernel: a d-nested loop mapped one element per
// thread. Reads are coalesced (consecutive threads walk consecutive
// input elements); writes scatter through a full per-element mod/div
// index computation — the inefficient strawman of the paper's §I.
//
// It lives in core (not baselines) because it is also the last rung of
// the degradation ladder: it needs no plan-time device allocations, no
// shared memory and no texture arrays, so it survives every resource
// fault the specialized kernels can die from. The baselines library
// wraps the same kernel as the "Naive" comparison backend.
#pragma once

#include <array>

#include "common/fastdiv.hpp"
#include "core/kernels.hpp"
#include "core/problem.hpp"
#include "gpusim/device.hpp"

namespace ttlg {

/// Digit capacity of the naive kernel's odometer (fused rank bound).
inline constexpr std::size_t kNaiveMaxRank = 32;

struct NaiveConfig {
  Index volume = 0;
  /// Output stride for each input dimension (fused problem).
  std::vector<Index> extents;
  std::vector<Index> out_strides;
  /// FastDiv per extent: the block's first element is decoded with
  /// multiplies and shifts; lanes then advance as an odometer.
  std::vector<FastDiv> extent_divs;
  Index grid_blocks = 1;
  int block_threads = 256;
};

NaiveConfig build_naive_config(const TransposeProblem& problem);

template <class T>
struct NaiveKernel {
  const NaiveConfig& cfg;
  sim::DeviceBuffer<T> in;
  sim::DeviceBuffer<T> out;
  Epilogue<T> epi{};

  void operator()(sim::BlockCtx& blk) const {
    const Index base = blk.block_id() * blk.block_dim();
    if (base >= cfg.volume) return;
    const std::size_t rank = cfg.extents.size();
    TTLG_ASSERT(rank <= kNaiveMaxRank, "fused rank exceeds odometer digits");

    // Decode the block's first element once with FastDiv; every further
    // element of the block is i+1, so the digit vector and the output
    // offset advance as an odometer (amortized O(1) per element). The
    // SIMULATED kernel still recomputes per element — the charge below
    // is unchanged.
    std::array<Index, kNaiveMaxRank> digit{};
    Index off = 0;
    {
      Index rest = base;
      for (std::size_t d = 0; d < rank; ++d) {
        const DivMod dm = cfg.extent_divs[d].divmod(rest);
        rest = dm.quot;
        digit[d] = dm.rem;
        off += dm.rem * cfg.out_strides[d];
      }
    }

    for (int w = 0; w < blk.num_warps(); ++w) {
      const Index wbase = base + static_cast<Index>(w) * sim::kWarpSize;
      if (wbase >= cfg.volume) break;
      sim::LaneArray ga, go;
      sim::LaneValues<T> v{};
      for (int l = 0; l < sim::kWarpSize; ++l) {
        const Index i = wbase + l;
        if (i >= cfg.volume) break;
        ga.set(l, i);
        go.set(l, off);
        // Advance to element i+1: bump digit 0, carry as needed.
        for (std::size_t d = 0; d < rank; ++d) {
          off += cfg.out_strides[d];
          if (++digit[d] < cfg.extents[d]) break;
          digit[d] = 0;
          off -= cfg.extents[d] * cfg.out_strides[d];
        }
      }
      // Per-element index arithmetic: 2 mod/div per dimension, per lane
      // step — executed once per warp in lock-step.
      blk.count_special(2 * static_cast<Index>(cfg.extents.size()));
      blk.gld(in, ga, v);
      store_with_epilogue(blk, out, go, v, epi);
    }
  }
};

/// Launch the naive kernel (with the tail block as its own class so
/// sampled count-only sweeps stay cheap).
template <class T>
sim::LaunchResult launch_naive(sim::Device& dev, const NaiveConfig& k,
                               sim::DeviceBuffer<T> in,
                               sim::DeviceBuffer<T> out, Epilogue<T> epi = {}) {
  sim::LaunchConfig cfg;
  cfg.elem_size = sizeof(T);
  cfg.grid_blocks = k.grid_blocks;
  cfg.block_threads = k.block_threads;
  cfg.kernel_name = "naive";
  // All interior blocks are equivalent; only the tail block differs: one
  // chunked dimension of grid_blocks chunks whose last may be partial.
  cfg.classes = {k.grid_blocks, k.volume % k.block_threads != 0, 1, false};
  return dev.launch(NaiveKernel<T>{k, in, out, epi}, cfg);
}

}  // namespace ttlg
