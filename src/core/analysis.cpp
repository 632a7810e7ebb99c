#include "core/analysis.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "gpusim/coalescing.hpp"
#include "gpusim/lane.hpp"

namespace ttlg {
namespace {

constexpr Index kWS = sim::kWarpSize;

Index ceil_div(Index a, Index b) { return (a + b - 1) / b; }

/// (value, multiplicity) pairs describing full and remainder instances
/// of a chunked dimension, e.g. extent 70 blocked by 32 -> {(32,2),(6,1)}.
struct ValCount {
  Index value;
  Index count;
};

std::vector<ValCount> chunk_classes(Index full_value, Index chunks,
                                    Index rem_value) {
  std::vector<ValCount> out;
  const Index full_count = rem_value != 0 ? chunks - 1 : chunks;
  if (full_count > 0) out.push_back({full_value, full_count});
  if (rem_value != 0) out.push_back({rem_value, 1});
  return out;
}

void finish(sim::LaunchCounters& c, const TransposeProblem& p,
            Index grid_blocks, int block_threads, Index smem_elems) {
  c.grid_blocks = grid_blocks;
  c.block_threads = block_threads;
  c.shared_bytes_per_block = smem_elems * p.elem_size;
  c.payload_bytes = 2 * p.volume() * p.elem_size;
}

}  // namespace

Index txns_for_run(Index elems, int elem_size, Index txn_bytes) {
  if (elems <= 0) return 0;
  return ceil_div(elems * elem_size, txn_bytes);
}

Index txns_for_run_at_phase(Index phase, Index elems, int elem_size,
                            Index txn_bytes) {
  // With the run starting at byte S + phase (S a segment boundary), the
  // last touched byte is S + phase + elems*elem_size - 1, so the span
  // covers floor((phase + elems*elem_size - 1) / txn_bytes) + 1
  // segments — the closed form of the coalescer's (b1/txn - b0/txn + 1).
  return (phase + elems * elem_size - 1) / txn_bytes + 1;
}

std::vector<std::int32_t> build_phase_table(std::span<const RunAccess> runs,
                                            int elem_size, Index txn_bytes) {
  if (runs.empty()) return {};
  // With (q, r) = divmod(nlanes*elem_size - 1, txn_bytes), a run starting
  // at phase ph takes q + 1 + [ph >= txn_bytes - r] transactions (the
  // closed form of txns_for_run_at_phase). So every run adds q + 1 to
  // the whole table, plus 1 on the cyclic range of block phases p whose
  // start phase (p + rel0*elem_size) mod txn_bytes lands in
  // [txn_bytes - r, txn_bytes): r consecutive entries beginning at
  // (txn_bytes - r - ph0) mod txn_bytes. The ranges go into a difference
  // array, so the cost is O(runs + txn_bytes).
  const Index txn = txn_bytes;
  Index all = 0;
  std::vector<Index> diff(static_cast<std::size_t>(txn) + 1, 0);
  for (const RunAccess& run : runs) {
    const Index span = run.nlanes * elem_size - 1;
    all += span / txn + 1;
    const Index r = span % txn;
    if (r == 0) continue;
    Index ph0 = (run.rel0 * elem_size) % txn;
    if (ph0 < 0) ph0 += txn;
    Index lo = txn - r - ph0;
    if (lo < 0) lo += txn;
    const Index hi = lo + r;
    ++diff[static_cast<std::size_t>(lo)];
    if (hi <= txn) {
      --diff[static_cast<std::size_t>(hi)];
    } else {
      ++diff[0];
      --diff[static_cast<std::size_t>(hi - txn)];
    }
  }
  std::vector<std::int32_t> table(static_cast<std::size_t>(txn));
  Index extra = 0;
  for (std::size_t p = 0; p < table.size(); ++p) {
    extra += diff[p];
    table[p] = static_cast<std::int32_t>(all + extra);
  }
  return table;
}

sim::LaunchCounters analyze_od(const TransposeProblem& p, const OdConfig& c) {
  sim::LaunchCounters ctr;
  const Index outer =
      c.grid_blocks / (c.a_chunks * c.b_chunks);
  const auto a_classes =
      chunk_classes(c.slice.a_vol, c.a_chunks, c.a_rem ? c.p_in * c.a_rem : 0);
  const auto b_classes =
      chunk_classes(c.slice.b_vol, c.b_chunks,
                    c.b_rem ? c.p_out * c.b_rem : 0);

  for (const auto& [A, na] : a_classes) {
    for (const auto& [B, nb] : b_classes) {
      const Index blocks = na * nb * outer;
      // Tile classes within an A x B slice.
      const auto aw_classes = chunk_classes(kWS, ceil_div(A, kWS), A % kWS);
      const auto bh_classes = chunk_classes(kWS, ceil_div(B, kWS), B % kWS);
      Index ld = 0, st = 0, sm_st = 0, sm_ld = 0, tex = 0;
      for (const auto& [aw, ca] : aw_classes) {
        for (const auto& [bh, cb] : bh_classes) {
          const Index tiles = ca * cb;
          ld += tiles * bh * txns_for_run(aw, p.elem_size);
          st += tiles * aw * txns_for_run(bh, p.elem_size);
          sm_st += tiles * bh;
          sm_ld += tiles * aw;
          tex += tiles * (bh + aw);
        }
      }
      ctr.gld_transactions += blocks * ld;
      ctr.gst_transactions += blocks * st;
      ctr.smem_store_ops += blocks * sm_st;
      ctr.smem_load_ops += blocks * sm_ld;
      ctr.tex_transactions += blocks * tex;
    }
  }
  // Offset arrays are shared by all blocks: cold misses only.
  ctr.tex_misses = ceil_div(
      (c.slice.a_vol + c.slice.b_vol) * static_cast<Index>(sizeof(Index)), 32);
  ctr.special_ops =
      2 * static_cast<Index>(c.grid_extents.size()) * c.grid_blocks +
      c.extra_row_specials * (ctr.smem_load_ops + ctr.smem_store_ops);
  finish(ctr, p, c.grid_blocks, c.block_threads, 32 * c.tile_pitch);
  return ctr;
}

sim::LaunchCounters analyze_oa(const TransposeProblem& p, const OaConfig& c) {
  sim::LaunchCounters ctr;
  const Index outer = c.grid_blocks / (c.a_chunks * c.b_chunks);
  const auto a_classes =
      chunk_classes(c.in_vol, c.a_chunks, c.a_rem ? c.p_in * c.a_rem : 0);
  const auto b_classes =
      chunk_classes(c.oos_vol, c.b_chunks, c.b_rem ? c.p_oos * c.b_rem : 0);

  // Exact bank-conflict count for a full slice, replayed from the actual
  // indirection array when present (geometry-only configs estimate 0 —
  // the §V feature set has no conflict term either).
  Index conflicts_full = 0;
  for (Index s0 = 0; !c.sm_out_offset.empty() && s0 < c.slice_vol;
       s0 += kWS) {
    sim::LaneArray lanes;
    for (int l = 0; l < kWS; ++l) {
      const Index s = s0 + l;
      if (s >= c.slice_vol) break;
      lanes.set(l, c.pad_index(c.sm_out_offset[static_cast<std::size_t>(s)]));
    }
    conflicts_full += sim::count_bank_conflicts(lanes, kWS);
  }

  const Index warp_iters = ceil_div(c.slice_vol, kWS);
  const Index nwarps = std::max(1, c.block_threads / static_cast<int>(kWS));

  for (const auto& [ce, na] : a_classes) {
    for (const auto& [re, nb] : b_classes) {
      const Index blocks = na * nb * outer;
      const bool partial = ce < c.in_vol || re < c.oos_vol;
      const double vf = static_cast<double>(ce) * static_cast<double>(re) /
                        static_cast<double>(c.slice_vol);
      // Copy-in: one contiguous run of ce elements per valid row.
      Index ld = re * txns_for_run(ce, p.elem_size);
      if (c.in_vol % kWS != 0) ld += re;  // row-straddling warps
      // Copy-out: contiguous output runs of output_run elements.
      const Index nruns = c.slice_vol / std::max<Index>(c.output_run, 1);
      const Index st = static_cast<Index>(
          static_cast<double>(nruns * txns_for_run(c.output_run, p.elem_size)) *
              vf +
          0.999);
      const Index sm = warp_iters;  // warp-collective ops per phase
      const Index conflicts =
          static_cast<Index>(static_cast<double>(conflicts_full) * vf);
      // Texture: ~1 line/warp for input_offset; 8 lines/warp/array for
      // the two 8-byte copy-out arrays.
      const Index tex = warp_iters * (1 + 16);
      Index special = 2 * static_cast<Index>(c.grid_extents.size()) +
                      2 * nwarps;  // decode + entry mod/div
      if (partial) special += 4 * warp_iters;

      const Index mult = blocks * c.coarsen_extent;
      ctr.gld_transactions += mult * ld;
      ctr.gst_transactions += mult * st;
      ctr.smem_store_ops += mult * sm;
      ctr.smem_load_ops += mult * sm;
      ctr.smem_bank_conflicts += mult * conflicts;
      ctr.tex_transactions += mult * tex;
      ctr.special_ops += blocks * special;  // decode is per block, but the
                                            // coarsen loop reuses it
    }
  }
  ctr.tex_misses = ceil_div(
      (c.oos_vol + 2 * c.slice_vol) * static_cast<Index>(sizeof(Index)), 32);
  finish(ctr, p, c.grid_blocks, c.block_threads, c.smem_elems());
  return ctr;
}

sim::LaunchCounters analyze_fvi_small(const TransposeProblem& p,
                                      const FviSmallConfig& c) {
  sim::LaunchCounters ctr;
  const Index outer = c.grid_blocks / (c.i1_chunks * c.ik_chunks);
  const auto i1_classes = chunk_classes(c.b, c.i1_chunks, c.i1_rem);
  const auto ik_classes = chunk_classes(c.b, c.ik_chunks, c.ik_rem);
  for (const auto& [i1e, n1] : i1_classes) {
    for (const auto& [ike, nk] : ik_classes) {
      const Index blocks = n1 * nk * outer;
      const Index in_run = i1e * c.n0;
      const Index out_run = ike * c.n0;
      const Index mult = blocks * c.coarsen_extent;
      ctr.gld_transactions += mult * ike * txns_for_run(in_run, p.elem_size);
      ctr.gst_transactions += mult * i1e * txns_for_run(out_run, p.elem_size);
      ctr.smem_store_ops += mult * ike * ceil_div(in_run, kWS);
      ctr.smem_load_ops += mult * i1e * ceil_div(out_run, kWS);
    }
  }
  ctr.special_ops =
      2 * static_cast<Index>(c.grid_extents.size()) * c.grid_blocks;
  finish(ctr, p, c.grid_blocks, c.block_threads, c.smem_elems);
  return ctr;
}

sim::LaunchCounters analyze_fvi_large(const TransposeProblem& p,
                                      const FviLargeConfig& c) {
  sim::LaunchCounters ctr;
  const Index outer = c.grid_blocks / (c.segs * c.batch_chunks);
  const auto seg_classes = chunk_classes(
      c.seg_len, c.segs, c.n0 % c.seg_len);
  const auto batch_classes = chunk_classes(c.batch, c.batch_chunks,
                                           c.batch_rem);
  for (const auto& [len, ns] : seg_classes) {
    for (const auto& [rows, nb] : batch_classes) {
      const Index mult = ns * nb * outer * rows;
      ctr.gld_transactions += mult * txns_for_run(len, p.elem_size);
      ctr.gst_transactions += mult * txns_for_run(len, p.elem_size);
    }
  }
  ctr.special_ops =
      2 * static_cast<Index>(c.grid_extents.size()) * c.grid_blocks;
  finish(ctr, p, c.grid_blocks, c.block_threads, 0);
  return ctr;
}

double od_cycles_feature(const TransposeProblem& p, const OdConfig& c) {
  (void)p;
  const Index outer = c.grid_blocks / (c.a_chunks * c.b_chunks);
  const auto a_classes =
      chunk_classes(c.slice.a_vol, c.a_chunks, c.a_rem ? c.p_in * c.a_rem : 0);
  const auto b_classes =
      chunk_classes(c.slice.b_vol, c.b_chunks,
                    c.b_rem ? c.p_out * c.b_rem : 0);
  double total = 0;
  for (const auto& [A, na] : a_classes) {
    for (const auto& [B, nb] : b_classes) {
      // f = sum over tiles of (tile width + tile height): n1*(32+32) +
      // n2*(32+rem2) + n3*(rem1+32) + n4*(rem1+rem2) in the paper's
      // notation.
      const auto aw_classes = chunk_classes(kWS, ceil_div(A, kWS), A % kWS);
      const auto bh_classes = chunk_classes(kWS, ceil_div(B, kWS), B % kWS);
      double f = 0;
      for (const auto& [aw, ca] : aw_classes)
        for (const auto& [bh, cb] : bh_classes)
          f += static_cast<double>(ca * cb) * static_cast<double>(aw + bh);
      total += static_cast<double>(na * nb * outer) * f;
    }
  }
  return total;
}

double oa_cycles_feature(const TransposeProblem& p, const OaConfig& c) {
  // Transactions over full + partial slices (f1 + f2 + f3 + f4).
  const sim::LaunchCounters ctr = analyze_oa(p, c);
  return static_cast<double>(ctr.dram_transactions());
}

double oa_special_feature(const TransposeProblem& p, const OaConfig& c) {
  const sim::LaunchCounters ctr = analyze_oa(p, c);
  return static_cast<double>(ctr.special_ops);
}

}  // namespace ttlg
