// Execution of compiled stride programs (core/stride_program.hpp).
//
// A specialized launch presents the IDENTICAL LaunchConfig the generic
// kernel would have used (same grid/block geometry, shared size, kernel
// name, block classes, window, texture flag), so fault injection, sampled
// counting, windowing, parallel chunking and telemetry all behave the
// same; only the per-block body changes. Per block it:
//   1. decodes the GridEntry (block table, fixed-rank unrolled FastDiv
//      for the templated variants, or dynamic FastDiv),
//   2. bulk-charges the class's block-invariant counter delta,
//   3. charges global transactions — per recorded access in closed form,
//      or, on the affine tier, one phase-table lookup per direction for
//      the whole tile,
//   4. replays the texture-line touches, and
//   5. in functional mode, runs the fused copy table.
#pragma once

#include <array>
#include <span>
#include <utility>
#include <vector>

#include "core/launch_helpers.hpp"
#include "core/stride_program.hpp"

namespace ttlg {

/// One width-templated specialized kernel variant. Slots > 0 pins the
/// decode rank at compile time (the dispatch table's rank bucket);
/// Slots == 0 is the dynamic-rank stride-program interpreter.
template <class T, bool Affine, int Slots>
struct SpecializedKernel {
  const SpecProgram* prog;
  const GridDecoder* dec;
  sim::DeviceBuffer<T> in;
  sim::DeviceBuffer<T> out;

  void operator()(sim::BlockCtx& blk) const {
    GridEntry e;
    if (dec->has_table()) {
      e = dec->decode(blk.block_id());
    } else if constexpr (Slots > 0) {
      e = dec->template decode_fixed<Slots>(blk.block_id());
    } else {
      e = dec->decode_fastdiv(blk.block_id());
    }
    const ClassProgram& cp = prog->cls[prog->class_of(e)];
    blk.bulk_charge(cp.const_delta);

    constexpr std::int64_t es = sizeof(T);
    const std::int64_t in0 = in.base_addr() + e.in_base * es;
    const std::int64_t out0 = out.base_addr() + e.out_base * es;
    if constexpr (Affine) {
      const std::int64_t pm = prog->txn_bytes - 1;
      if (!cp.gld_phase.empty())
        blk.add_gld_transactions(cp.gld_phase[static_cast<std::size_t>(in0 & pm)]);
      if (!cp.gst_phase.empty())
        blk.add_gst_transactions(cp.gst_phase[static_cast<std::size_t>(out0 & pm)]);
    } else {
      std::int64_t ld = 0, st = 0;
      for (const SpecGlobalOp& op : cp.gops) {
        const std::int64_t base = op.is_load ? in0 : out0;
        const std::int64_t t =
            op.is_run
                ? sim::count_run_transactions(base + op.rel0 * es, op.nlanes,
                                              static_cast<int>(es),
                                              prog->txn_bytes)
                : sim::count_sorted_offset_transactions(
                      base, cp.byte_deltas.data() + op.delta_off, op.delta_len,
                      prog->txn_bytes);
        if (op.is_load) ld += t;
        else st += t;
      }
      blk.add_gld_transactions(ld);
      blk.add_gst_transactions(st);
    }
    if (!cp.tex_lines.empty()) blk.touch_tex_lines(cp.tex_lines);

    if (blk.mode() != sim::ExecMode::kFunctional || cp.max_src < 0) return;
    TTLG_ASSERT(in.valid() && out.valid(),
                "functional access through a storage-free (virtual) buffer");
    TTLG_ASSERT(e.in_base + cp.min_src >= 0 && e.in_base + cp.max_src < in.size(),
                "global load out of bounds");
    TTLG_ASSERT(
        e.out_base + cp.min_dst >= 0 && e.out_base + cp.max_dst < out.size(),
        "global store out of bounds");
    const T* ip = in.data() + e.in_base;
    sim::DeviceBuffer<T> ob = out;  // the view is const inside operator()
    T* op = ob.data() + e.out_base;
    if (cp.use_run_copies) {
      for (const SpecRunCopy& rc : cp.run_copies) {
        const T* s = ip + rc.src0;
        T* d = op + rc.dst0;
        for (std::int64_t i = 0; i < rc.n; ++i) d[i] = s[i];
      }
    } else {
      const std::int64_t n = static_cast<std::int64_t>(cp.copy_dst.size());
      const std::int64_t* dst = cp.copy_dst.data();
      const std::int64_t* src = cp.copy_src.data();
      for (std::int64_t i = 0; i < n; ++i) op[dst[i]] = ip[src[i]];
    }
  }
};

template <class T>
using SpecLaunchFn = sim::LaunchResult (*)(sim::Device&, const SpecProgram&,
                                           const GridDecoder&,
                                           const sim::LaunchConfig&,
                                           sim::DeviceBuffer<T>,
                                           sim::DeviceBuffer<T>);

template <class T, bool Affine, int Slots>
sim::LaunchResult run_spec_variant(sim::Device& dev, const SpecProgram& prog,
                                   const GridDecoder& dec,
                                   const sim::LaunchConfig& cfg,
                                   sim::DeviceBuffer<T> in,
                                   sim::DeviceBuffer<T> out) {
  sim::LaunchConfig c = cfg;
  return dev.launch(SpecializedKernel<T, Affine, Slots>{&prog, &dec, in, out},
                    c);
}

/// Per-member (input, output) buffer table of a fused batched launch.
template <class T>
using SpecMemberSpan =
    std::span<const std::pair<sim::DeviceBuffer<T>, sim::DeviceBuffer<T>>>;

template <class T>
using SpecBatchedFn = std::vector<sim::LaunchResult> (*)(
    sim::Device&, const SpecProgram&, const GridDecoder&,
    const sim::LaunchConfig&, SpecMemberSpan<T>);

/// Batched twin of run_spec_variant: the same width-templated kernel
/// body per member, folded into one super-grid dispatch
/// (Device::launch_batched). The kernel factory rebinds only the
/// member's buffer pair — program and decoder are batch-invariant.
template <class T, bool Affine, int Slots>
std::vector<sim::LaunchResult> run_spec_variant_batched(
    sim::Device& dev, const SpecProgram& prog, const GridDecoder& dec,
    const sim::LaunchConfig& cfg, SpecMemberSpan<T> members) {
  return dev.launch_batched(
      [&](std::int64_t m) {
        const auto& [in, out] = members[static_cast<std::size_t>(m)];
        return SpecializedKernel<T, Affine, Slots>{&prog, &dec, in, out};
      },
      cfg, static_cast<std::int64_t>(members.size()));
}

/// One dispatch-table row: the pre-instantiated launch entry points for
/// a (schema, rank bucket, element width) key — the stride-program
/// variant (tier kTemplated) and the affine whole-tile variant (tier
/// kAffineBulk), each in single-launch and fused-batched form.
template <class T>
struct SpecDispatchRow {
  Schema schema;
  int rank_bucket;
  int width;
  SpecLaunchFn<T> stride_fn;
  SpecLaunchFn<T> affine_fn;
  SpecBatchedFn<T> stride_batched;
  SpecBatchedFn<T> affine_batched;
};

/// Plan-time-resolved dispatch table. Compiled programs are
/// schema-neutral (the schema's behavior is baked into the program), so
/// rows of one rank bucket share entry points; the schema key exists so
/// every planned kernel resolves through an explicit table entry and
/// unexpected keys fail loudly (nullptr -> generic fallback).
template <class T>
const SpecDispatchRow<T>* find_spec_dispatch(Schema schema, int rank_bucket,
                                             int width) {
  static const std::array<SpecDispatchRow<T>, 20> table = [] {
    constexpr Schema kSchemas[5] = {
        Schema::kCopy, Schema::kFviMatchLarge, Schema::kFviMatchSmall,
        Schema::kOrthogonalDistinct, Schema::kOrthogonalArbitrary};
    constexpr SpecLaunchFn<T> kStrideFns[kSpecMaxRankBucket] = {
        &run_spec_variant<T, false, 1>, &run_spec_variant<T, false, 2>,
        &run_spec_variant<T, false, 3>, &run_spec_variant<T, false, 4>};
    constexpr SpecLaunchFn<T> kAffineFns[kSpecMaxRankBucket] = {
        &run_spec_variant<T, true, 1>, &run_spec_variant<T, true, 2>,
        &run_spec_variant<T, true, 3>, &run_spec_variant<T, true, 4>};
    constexpr SpecBatchedFn<T> kStrideBatchedFns[kSpecMaxRankBucket] = {
        &run_spec_variant_batched<T, false, 1>,
        &run_spec_variant_batched<T, false, 2>,
        &run_spec_variant_batched<T, false, 3>,
        &run_spec_variant_batched<T, false, 4>};
    constexpr SpecBatchedFn<T> kAffineBatchedFns[kSpecMaxRankBucket] = {
        &run_spec_variant_batched<T, true, 1>,
        &run_spec_variant_batched<T, true, 2>,
        &run_spec_variant_batched<T, true, 3>,
        &run_spec_variant_batched<T, true, 4>};
    std::array<SpecDispatchRow<T>, 20> t{};
    std::size_t i = 0;
    for (Schema s : kSchemas) {
      for (int b = 1; b <= kSpecMaxRankBucket; ++b) {
        t[i++] = SpecDispatchRow<T>{s, b, static_cast<int>(sizeof(T)),
                                    kStrideFns[b - 1], kAffineFns[b - 1],
                                    kStrideBatchedFns[b - 1],
                                    kAffineBatchedFns[b - 1]};
      }
    }
    return t;
  }();
  for (const SpecDispatchRow<T>& row : table) {
    if (row.schema == schema && row.rank_bucket == rank_bucket &&
        row.width == width)
      return &row;
  }
  return nullptr;
}

/// Launch a compiled program with the same config the generic kernel
/// would use. The decoder is resolved from the CURRENT selection (it
/// moves with the plan; the program stores no pointers into it).
template <class T>
sim::LaunchResult launch_specialized(sim::Device& dev, const SpecProgram& prog,
                                     const KernelSelection& sel,
                                     sim::DeviceBuffer<T> in,
                                     sim::DeviceBuffer<T> out,
                                     LaunchWindow win = {}) {
  TTLG_ASSERT(prog.tier != SpecTier::kGeneric,
              "generic plans carry no stride program");
  TTLG_ASSERT(prog.elem_size == static_cast<int>(sizeof(T)),
              "stride program element width mismatch");
  sim::LaunchConfig cfg = launch_config_for(sel, static_cast<int>(sizeof(T)));
  win.apply(cfg);
  const GridDecoder& dec = decoder_for(sel);
  if (prog.tier == SpecTier::kStrideProgram || dec.slots() != spec_rank_bucket(dec.slots())) {
    return run_spec_variant<T, false, 0>(dev, prog, dec, cfg, in, out);
  }
  const SpecDispatchRow<T>* row = find_spec_dispatch<T>(
      sel.schema, spec_rank_bucket(dec.slots()), static_cast<int>(sizeof(T)));
  if (row == nullptr) {
    return run_spec_variant<T, false, 0>(dev, prog, dec, cfg, in, out);
  }
  return (prog.tier == SpecTier::kAffineBulk ? row->affine_fn
                                             : row->stride_fn)(
      dev, prog, dec, cfg, in, out);
}

/// Fused batched twin of launch_specialized: the same tier/bucket
/// dispatch, resolving to the batched entry points. No window — a
/// fused launch always covers whole member grids.
template <class T>
std::vector<sim::LaunchResult> launch_specialized_batched(
    sim::Device& dev, const SpecProgram& prog, const KernelSelection& sel,
    SpecMemberSpan<T> members) {
  TTLG_ASSERT(prog.tier != SpecTier::kGeneric,
              "generic plans carry no stride program");
  TTLG_ASSERT(prog.elem_size == static_cast<int>(sizeof(T)),
              "stride program element width mismatch");
  const sim::LaunchConfig cfg =
      launch_config_for(sel, static_cast<int>(sizeof(T)));
  const GridDecoder& dec = decoder_for(sel);
  if (prog.tier == SpecTier::kStrideProgram ||
      dec.slots() != spec_rank_bucket(dec.slots())) {
    return run_spec_variant_batched<T, false, 0>(dev, prog, dec, cfg,
                                                 members);
  }
  const SpecDispatchRow<T>* row = find_spec_dispatch<T>(
      sel.schema, spec_rank_bucket(dec.slots()), static_cast<int>(sizeof(T)));
  if (row == nullptr) {
    return run_spec_variant_batched<T, false, 0>(dev, prog, dec, cfg,
                                                 members);
  }
  return (prog.tier == SpecTier::kAffineBulk ? row->affine_batched
                                             : row->stride_batched)(
      dev, prog, dec, cfg, members);
}

}  // namespace ttlg
