// Launch wrappers shared by the TTLG plan and the baseline libraries:
// they assemble the sim::LaunchConfig (including the block classes used
// for sampled counting) and dispatch the right kernel.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "core/kernels.hpp"
#include "core/planner.hpp"
#include "gpusim/device.hpp"

namespace ttlg {

/// A contiguous block-id window of one logical grid. Default = the
/// whole grid. The sharded executor runs disjoint windows of a single
/// planned grid on different devices; block ids stay absolute, so a
/// window executes exactly the blocks it would inside the full launch.
struct LaunchWindow {
  Index offset = 0;
  Index count = -1;  ///< -1 = through the end of the grid
  /// Optional per-launch texture-access capture (LaunchConfig::
  /// tex_capture): recorded in block order for cross-window replay.
  std::vector<std::int64_t>* tex_capture = nullptr;

  /// Rewrites a full-grid LaunchConfig into this window (call after
  /// cfg.grid_blocks has been set to the full grid size).
  void apply(sim::LaunchConfig& cfg) const {
    cfg.block_offset = offset;
    cfg.grid_blocks = count >= 0 ? count : cfg.grid_blocks - offset;
    cfg.tex_capture = tex_capture;
  }
};

// Full-grid LaunchConfig builders, one per kernel. Shared between the
// generic launchers below and the specialized dispatch path
// (core/spec_exec.hpp): both paths MUST present the identical config —
// same grid, block geometry, shared size, kernel name, block classes —
// so fault injection, sampling, windowing and telemetry behave the same
// regardless of which kernel body runs.
inline sim::LaunchConfig make_od_cfg(const OdConfig& k, int elem_size) {
  sim::LaunchConfig cfg;
  cfg.elem_size = elem_size;
  cfg.grid_blocks = k.grid_blocks;
  cfg.block_threads = k.block_threads;
  cfg.shared_elems = 32 * k.tile_pitch;
  cfg.kernel_name = "orthogonal_distinct";
  cfg.uses_texture = true;
  cfg.classes = {k.a_chunks, k.a_rem != 0, k.b_chunks, k.b_rem != 0};
  return cfg;
}

inline sim::LaunchConfig make_oa_cfg(const OaConfig& k, int elem_size) {
  sim::LaunchConfig cfg;
  cfg.elem_size = elem_size;
  cfg.grid_blocks = k.grid_blocks;
  cfg.block_threads = k.block_threads;
  cfg.shared_elems = k.smem_elems();
  cfg.kernel_name = "orthogonal_arbitrary";
  cfg.uses_texture = true;
  cfg.classes = {k.a_chunks, k.a_rem != 0, k.b_chunks, k.b_rem != 0};
  return cfg;
}

inline sim::LaunchConfig make_fvi_small_cfg(const FviSmallConfig& k,
                                            int elem_size) {
  sim::LaunchConfig cfg;
  cfg.elem_size = elem_size;
  cfg.grid_blocks = k.grid_blocks;
  cfg.block_threads = k.block_threads;
  cfg.shared_elems = k.smem_elems;
  cfg.kernel_name = "fvi_match_small";
  cfg.classes = {k.i1_chunks, k.i1_rem != 0, k.ik_chunks, k.ik_rem != 0};
  return cfg;
}

inline sim::LaunchConfig make_fvi_large_cfg(const FviLargeConfig& k,
                                            int elem_size) {
  sim::LaunchConfig cfg;
  cfg.elem_size = elem_size;
  cfg.grid_blocks = k.grid_blocks;
  cfg.block_threads = k.block_threads;
  cfg.shared_elems = 0;
  cfg.kernel_name = "fvi_match_large";
  cfg.classes = {k.segs, k.n0 % k.seg_len != 0, k.batch_chunks,
                 k.batch_rem != 0};
  return cfg;
}

/// The grid decoder of the selected kernel.
inline const GridDecoder& decoder_for(const KernelSelection& sel) {
  switch (sel.schema) {
    case Schema::kFviMatchSmall: return sel.fvi_small.decoder;
    case Schema::kOrthogonalDistinct: return sel.od.decoder;
    case Schema::kOrthogonalArbitrary: return sel.oa.decoder;
    default: return sel.fvi_large.decoder;  // kCopy / kFviMatchLarge
  }
}

/// The full-grid LaunchConfig of the selected kernel.
inline sim::LaunchConfig launch_config_for(const KernelSelection& sel,
                                           int elem_size) {
  switch (sel.schema) {
    case Schema::kFviMatchSmall: return make_fvi_small_cfg(sel.fvi_small, elem_size);
    case Schema::kOrthogonalDistinct: return make_od_cfg(sel.od, elem_size);
    case Schema::kOrthogonalArbitrary: return make_oa_cfg(sel.oa, elem_size);
    default: return make_fvi_large_cfg(sel.fvi_large, elem_size);
  }
}

/// Per-member (input, output) buffer pairs of one launch; a single
/// launch is a batch of one.
template <class T>
using MemberSpan =
    std::span<const std::pair<sim::DeviceBuffer<T>, sim::DeviceBuffer<T>>>;

/// The texture-resident offset arrays a selection's kernel binds. OD:
/// t0 = in_offset, t1 = out_offset. OA: t0 = input_offset,
/// t1 = output_offset, t2 = sm_out_offset. The FVI schemas bind none.
struct OffsetArrays {
  sim::DeviceBuffer<Index> t0, t1, t2;

  /// Upload the selection's arrays (plan-time work). Each array is
  /// stored as soon as it lands, so after a failed upload release()
  /// frees exactly the part that did.
  void upload(sim::Device& dev, const KernelSelection& sel) {
    if (sel.schema == Schema::kOrthogonalDistinct) {
      t0 = dev.alloc_copy<Index>(sel.od.in_offset);
      t1 = dev.alloc_copy<Index>(sel.od.out_offset);
    } else if (sel.schema == Schema::kOrthogonalArbitrary) {
      t0 = dev.alloc_copy<Index>(sel.oa.input_offset);
      t1 = dev.alloc_copy<Index>(sel.oa.output_offset);
      t2 = dev.alloc_copy<Index>(sel.oa.sm_out_offset);
    }
  }

  /// Free the arrays that are still live (non-throwing: the owner may
  /// outlive a Device::free_all()) and reset to empty.
  void release(sim::Device& dev) {
    for (sim::DeviceBuffer<Index>* b : {&t0, &t1, &t2})
      if (b->valid()) dev.try_free(*b);
    *this = {};
  }
};

/// Launch the selected schema's generic kernel over every member as one
/// dispatch (sim::Device::launch_batched), with the full-grid config
/// from the make_*_cfg builders narrowed to `win` (a single member
/// only). Serves single, windowed and fused batched plan execution and
/// measured-plan candidate timing alike.
template <class T>
std::vector<sim::LaunchResult> launch_generic(sim::Device& dev,
                                              const KernelSelection& sel,
                                              const OffsetArrays& tex,
                                              MemberSpan<T> members,
                                              const Epilogue<T>& epi = {},
                                              LaunchWindow win = {}) {
  sim::LaunchConfig cfg = launch_config_for(sel, static_cast<int>(sizeof(T)));
  win.apply(cfg);
  const auto launch = [&](auto bind) {
    return dev.launch_batched(
        [&](std::int64_t m) {
          const auto& [in, out] = members[static_cast<std::size_t>(m)];
          return bind(in, out);
        },
        cfg, static_cast<std::int64_t>(members.size()));
  };
  using Buf = sim::DeviceBuffer<T>;
  switch (sel.schema) {
    case Schema::kCopy:
    case Schema::kFviMatchLarge:
      return launch([&](Buf in, Buf out) {
        return FviLargeKernel<T>{sel.fvi_large, in, out, epi};
      });
    case Schema::kFviMatchSmall:
      return launch([&](Buf in, Buf out) {
        return FviSmallKernel<T>{sel.fvi_small, in, out, epi};
      });
    case Schema::kOrthogonalDistinct:
      return launch([&](Buf in, Buf out) {
        return OdKernel<T>{sel.od, in, out, tex.t0, tex.t1, epi};
      });
    case Schema::kOrthogonalArbitrary:
      return launch([&](Buf in, Buf out) {
        return OaKernel<T>{sel.oa, in, out, tex.t0, tex.t1, tex.t2, epi};
      });
  }
  TTLG_ASSERT(false, "unreachable schema");
}

template <class T>
sim::LaunchResult launch_od(sim::Device& dev, const OdConfig& k,
                            sim::DeviceBuffer<T> in, sim::DeviceBuffer<T> out,
                            sim::DeviceBuffer<Index> in_offset,
                            sim::DeviceBuffer<Index> out_offset,
                            Epilogue<T> epi = {}, LaunchWindow win = {}) {
  sim::LaunchConfig cfg = make_od_cfg(k, sizeof(T));
  win.apply(cfg);
  return dev.launch(OdKernel<T>{k, in, out, in_offset, out_offset, epi},
                    cfg);
}

template <class T>
sim::LaunchResult launch_oa(sim::Device& dev, const OaConfig& k,
                            sim::DeviceBuffer<T> in, sim::DeviceBuffer<T> out,
                            sim::DeviceBuffer<Index> input_offset,
                            sim::DeviceBuffer<Index> output_offset,
                            sim::DeviceBuffer<Index> sm_out_offset,
                            Epilogue<T> epi = {}, LaunchWindow win = {}) {
  sim::LaunchConfig cfg = make_oa_cfg(k, sizeof(T));
  win.apply(cfg);
  return dev.launch(
      OaKernel<T>{k, in, out, input_offset, output_offset, sm_out_offset,
                  epi},
      cfg);
}

template <class T>
sim::LaunchResult launch_fvi_small(sim::Device& dev, const FviSmallConfig& k,
                                   sim::DeviceBuffer<T> in,
                                   sim::DeviceBuffer<T> out,
                                   Epilogue<T> epi = {}, LaunchWindow win = {}) {
  sim::LaunchConfig cfg = make_fvi_small_cfg(k, sizeof(T));
  win.apply(cfg);
  return dev.launch(FviSmallKernel<T>{k, in, out, epi}, cfg);
}

template <class T>
sim::LaunchResult launch_fvi_large(sim::Device& dev, const FviLargeConfig& k,
                                   sim::DeviceBuffer<T> in,
                                   sim::DeviceBuffer<T> out,
                                   Epilogue<T> epi = {}, LaunchWindow win = {}) {
  sim::LaunchConfig cfg = make_fvi_large_cfg(k, sizeof(T));
  win.apply(cfg);
  return dev.launch(FviLargeKernel<T>{k, in, out, epi}, cfg);
}

}  // namespace ttlg
