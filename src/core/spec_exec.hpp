// Execution of compiled stride programs (core/stride_program.hpp).
//
// A specialized launch presents the IDENTICAL LaunchConfig the generic
// kernel would have used (same grid/block geometry, shared size, kernel
// name, block classes, window, texture flag), so fault injection, sampled
// counting, windowing, parallel chunking and telemetry all behave the
// same; only the per-block body changes. Per block it:
//   1. decodes the GridEntry (fixed-rank unrolled FastDiv for the
//      templated variants, dynamic FastDiv in the interpreter),
//   2. bulk-charges the class's block-invariant counter delta,
//   3. charges global transactions — per recorded access in closed form,
//      or, on the affine tier, one phase-table lookup per direction for
//      the whole tile,
//   4. replays the texture-line touches, and
//   5. in functional mode, runs the fused copy table.
#pragma once

#include <vector>

#include "core/launch_helpers.hpp"
#include "core/stride_program.hpp"

namespace ttlg {

/// One width-templated specialized kernel variant. Slots > 0 pins the
/// decode rank at compile time (the rank bucket); Slots == 0 is the
/// dynamic-rank stride-program interpreter.
template <class T, bool Affine, int Slots>
struct SpecializedKernel {
  const SpecProgram* prog;
  const GridDecoder* dec;
  sim::DeviceBuffer<T> in;
  sim::DeviceBuffer<T> out;

  void operator()(sim::BlockCtx& blk) const {
    GridEntry e;
    if constexpr (Slots > 0) {
      e = dec->template decode_fixed<Slots>(blk.block_id());
    } else {
      e = dec->decode(blk.block_id());
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

/// One specialized variant over every member: a single launch is a
/// batch of one. The kernel factory rebinds only the member's buffer
/// pair — program and decoder are batch-invariant.
template <class T, bool Affine, int Slots>
std::vector<sim::LaunchResult> run_spec_variant(sim::Device& dev,
                                                const SpecProgram& prog,
                                                const GridDecoder& dec,
                                                const sim::LaunchConfig& cfg,
                                                MemberSpan<T> members) {
  return dev.launch_batched(
      [&](std::int64_t m) {
        const auto& [in, out] = members[static_cast<std::size_t>(m)];
        return SpecializedKernel<T, Affine, Slots>{&prog, &dec, in, out};
      },
      cfg, static_cast<std::int64_t>(members.size()));
}

template <class T, int Slots>
std::vector<sim::LaunchResult> run_spec_bucket(bool affine, sim::Device& dev,
                                               const SpecProgram& prog,
                                               const GridDecoder& dec,
                                               const sim::LaunchConfig& cfg,
                                               MemberSpan<T> members) {
  return affine ? run_spec_variant<T, true, Slots>(dev, prog, dec, cfg, members)
                : run_spec_variant<T, false, Slots>(dev, prog, dec, cfg,
                                                    members);
}

/// Launch a compiled program over every member with the same config
/// the generic kernel would use (`win` only for a single member). The
/// variant is a switch on the decode rank: ranks 1..kSpecMaxRankBucket
/// run the fixed-rank variant (whole-tile affine charging on the
/// kAffineBulk tier), anything else the interpreter. The decoder is
/// resolved from the CURRENT selection (it moves with the plan; the
/// program stores no pointers into it).
template <class T>
std::vector<sim::LaunchResult> launch_specialized(sim::Device& dev,
                                                  const SpecProgram& prog,
                                                  const KernelSelection& sel,
                                                  MemberSpan<T> members,
                                                  LaunchWindow win = {}) {
  TTLG_ASSERT(prog.tier != SpecTier::kGeneric,
              "generic plans carry no stride program");
  TTLG_ASSERT(prog.elem_size == static_cast<int>(sizeof(T)),
              "stride program element width mismatch");
  sim::LaunchConfig cfg = launch_config_for(sel, static_cast<int>(sizeof(T)));
  win.apply(cfg);
  const GridDecoder& dec = decoder_for(sel);
  const bool affine = prog.tier == SpecTier::kAffineBulk;
  static_assert(kSpecMaxRankBucket == 4, "one case per rank bucket");
  switch (prog.tier == SpecTier::kStrideProgram ? 0 : dec.slots()) {
    case 1: return run_spec_bucket<T, 1>(affine, dev, prog, dec, cfg, members);
    case 2: return run_spec_bucket<T, 2>(affine, dev, prog, dec, cfg, members);
    case 3: return run_spec_bucket<T, 3>(affine, dev, prog, dec, cfg, members);
    case 4: return run_spec_bucket<T, 4>(affine, dev, prog, dec, cfg, members);
    default: return run_spec_variant<T, false, 0>(dev, prog, dec, cfg, members);
  }
}

}  // namespace ttlg
