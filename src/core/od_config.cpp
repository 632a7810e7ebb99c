#include "core/od_config.hpp"

#include <algorithm>
#include <set>
#include <tuple>

#include "common/error.hpp"
#include "gpusim/lane.hpp"

namespace ttlg {
namespace {

constexpr Index kWS = sim::kWarpSize;

Index ceil_div(Index a, Index b) { return (a + b - 1) / b; }

}  // namespace

OdConfig build_od_config(const TransposeProblem& problem, const OdSlice& slice,
                         bool with_offsets) {
  const Shape& fs = problem.fused.shape;
  const Permutation& fp = problem.fused.perm;
  const Shape& fo = problem.fused_out;
  const Index rank = fs.rank();
  const Index x = slice.dims_in;
  const Index y = slice.dims_out;

  TTLG_CHECK(x >= 1 && x <= rank && y >= 1 && y <= rank,
             "slice prefix sizes out of range");
  for (Index j = 0; j < y; ++j) {
    TTLG_CHECK(fp[j] >= x,
               "Orthogonal-Distinct requires disjoint slice prefixes");
  }

  OdConfig cfg;
  cfg.slice = slice;

  cfg.p_in = 1;
  for (Index d = 0; d + 1 < x; ++d) cfg.p_in *= fs.extent(d);
  cfg.p_out = 1;
  for (Index j = 0; j + 1 < y; ++j) cfg.p_out *= fo.extent(j);

  cfg.in_blocked_dim = x - 1;
  cfg.out_blocked_pos = y - 1;
  const Index ext_a = fs.extent(x - 1);
  const Index ext_b = fo.extent(y - 1);
  TTLG_CHECK(slice.block_a >= 1 && slice.block_a <= ext_a,
             "block_a out of range");
  TTLG_CHECK(slice.block_b >= 1 && slice.block_b <= ext_b,
             "block_b out of range");
  TTLG_CHECK(slice.a_vol == cfg.p_in * slice.block_a,
             "inconsistent input slice volume");
  TTLG_CHECK(slice.b_vol == cfg.p_out * slice.block_b,
             "inconsistent output slice volume");
  cfg.a_chunks = ceil_div(ext_a, slice.block_a);
  cfg.a_rem = ext_a % slice.block_a;
  cfg.b_chunks = ceil_div(ext_b, slice.block_b);
  cfg.b_rem = ext_b % slice.block_b;

  // Grid decode slots, fastest first: chunkA, chunkB, then every fused
  // dimension outside both slice prefixes (input order).
  const Index b_in_dim = fp[y - 1];  // input dim carrying block_b
  cfg.grid_extents = {cfg.a_chunks, cfg.b_chunks};
  cfg.grid_in_strides = {slice.block_a * fs.stride(x - 1),
                         slice.block_b * fs.stride(b_in_dim)};
  cfg.grid_out_strides = {slice.block_a * fo.stride(fp.position_of(x - 1)),
                          slice.block_b * fo.stride(y - 1)};
  for (Index d = 0; d < rank; ++d) {
    if (d < x) continue;  // input slice dim
    bool in_out_slice = false;
    for (Index j = 0; j < y; ++j) {
      if (fp[j] == d) {
        in_out_slice = true;
        break;
      }
    }
    if (in_out_slice) continue;
    cfg.grid_extents.push_back(fs.extent(d));
    cfg.grid_in_strides.push_back(fs.stride(d));
    cfg.grid_out_strides.push_back(fo.stride(fp.position_of(d)));
  }
  cfg.grid_blocks = 1;
  for (Index e : cfg.grid_extents) cfg.grid_blocks *= e;
  cfg.decoder.init(cfg.grid_extents, cfg.grid_in_strides,
                   cfg.grid_out_strides);

  if (!with_offsets) return cfg;

  // Alg. 4 (distinct case): in_offset over the combined OUTPUT prefix,
  // out_offset over the combined INPUT prefix.
  cfg.in_offset.resize(static_cast<std::size_t>(slice.b_vol));
  for (Index b = 0; b < slice.b_vol; ++b) {
    Index rest = b, off = 0;
    for (Index j = 0; j < y; ++j) {
      const Index e = (j == y - 1) ? slice.block_b : fo.extent(j);
      off += (rest % e) * fs.stride(fp[j]);
      rest /= e;
    }
    cfg.in_offset[static_cast<std::size_t>(b)] = off;
  }
  cfg.out_offset.resize(static_cast<std::size_t>(slice.a_vol));
  for (Index a = 0; a < slice.a_vol; ++a) {
    Index rest = a, off = 0;
    for (Index d = 0; d < x; ++d) {
      const Index e = (d == x - 1) ? slice.block_a : fs.extent(d);
      off += (rest % e) * fo.stride(fp.position_of(d));
      rest /= e;
    }
    cfg.out_offset[static_cast<std::size_t>(a)] = off;
  }
  return cfg;
}

namespace {

/// Blocking-factor candidates for a prefix ending in a dimension of
/// extent `ext` with unblocked prefix volume `pvol`: values that land
/// the combined volume on (or just above) multiples of the warp size,
/// the full extent, and — for small extents, where every value is a
/// distinct warp-efficiency trade-off — the whole range (this is how
/// the paper's Fig. 5 search reaches slices like 27x7 = 189).
std::set<Index> blocking_candidates(Index pvol, Index ext,
                                    Index max_combined) {
  std::set<Index> out;
  out.insert(std::min(ext, std::max<Index>(1, max_combined / pvol)));
  if (pvol >= kWS) out.insert(1);
  // Alg. 3: combined volumes stepped in warp-size multiples.
  for (Index limit = kWS; limit <= 16 * kWS && limit <= pvol * ext;
       limit += kWS) {
    const Index b = std::min(ext, ceil_div(limit, pvol));
    if (pvol * b <= max_combined) out.insert(b);
  }
  if (pvol * ext <= max_combined) out.insert(ext);
  return out;
}

}  // namespace

std::vector<OdSlice> enumerate_od_slices(const TransposeProblem& problem,
                                         Index max_slice_vol) {
  const Shape& fs = problem.fused.shape;
  const Permutation& fp = problem.fused.perm;
  const Shape& fo = problem.fused_out;
  const Index rank = fs.rank();
  constexpr std::size_t kMaxCandidates = 768;

  std::vector<OdSlice> out;
  if (fp.fvi_matches()) return out;  // no disjoint prefixes exist
  max_slice_vol = std::max<Index>(max_slice_vol, kWS * kWS);

  // All disjoint prefix pairs (x input dims, y output dims), including
  // prefixes truncated below the warp size by the disjointness
  // constraint (the paper's Fig. 5 case: output slice 27 < WS).
  for (Index x = 1; x <= rank && fp[0] >= x; ++x) {
    Index p_in = 1;
    for (Index d = 0; d + 1 < x; ++d) p_in *= fs.extent(d);
    if (p_in > max_slice_vol) break;
    const auto ba_set =
        blocking_candidates(p_in, fs.extent(x - 1), max_slice_vol);

    for (Index y = 1; y <= rank; ++y) {
      // Disjointness: every output-prefix dim must be outside 0..x-1.
      if (fp[y - 1] < x) break;
      Index p_out = 1;
      for (Index j = 0; j + 1 < y; ++j) p_out *= fo.extent(j);
      if (p_out > max_slice_vol) break;
      const auto bb_set =
          blocking_candidates(p_out, fo.extent(y - 1), max_slice_vol);

      for (Index ba : ba_set) {
        for (Index bb : bb_set) {
          const Index a_vol = p_in * ba;
          const Index b_vol = p_out * bb;
          if (a_vol * b_vol > max_slice_vol) continue;
          OdSlice s;
          s.dims_in = x;
          s.dims_out = y;
          s.block_a = ba;
          s.block_b = bb;
          s.a_vol = a_vol;
          s.b_vol = b_vol;
          out.push_back(s);
          if (out.size() >= kMaxCandidates) return out;
        }
      }
    }
  }
  return out;
}

}  // namespace ttlg
