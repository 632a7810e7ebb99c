#include "core/oa_config.hpp"

#include <algorithm>
#include <set>
#include <tuple>

#include "common/error.hpp"
#include "gpusim/lane.hpp"

namespace ttlg {
namespace {

constexpr Index kWS = sim::kWarpSize;
constexpr Index kCoarsenMinBytes = 2 * 1024 * 1024;  // paper §IV-A

Index ceil_div(Index a, Index b) { return (a + b - 1) / b; }

int pick_block_threads(Index slice_vol) {
  if (slice_vol >= 256) return 256;
  return static_cast<int>(std::max<Index>(kWS, ceil_div(slice_vol, kWS) * kWS));
}

}  // namespace

OaConfig build_oa_config(const TransposeProblem& problem, const OaSlice& slice,
                         bool enable_coarsening, bool with_offsets) {
  const Shape& fs = problem.fused.shape;
  const Permutation& fp = problem.fused.perm;
  const Shape& fo = problem.fused_out;
  const Index rank = fs.rank();
  const Index x = slice.dims_in;
  const Index y = slice.dims_out;
  TTLG_CHECK(x >= 1 && x <= rank && y >= 1 && y <= rank,
             "slice prefix sizes out of range");

  OaConfig cfg;
  cfg.slice = slice;

  cfg.p_in = 1;
  for (Index d = 0; d + 1 < x; ++d) cfg.p_in *= fs.extent(d);
  cfg.in_blocked_dim = x - 1;
  const Index ext_a = fs.extent(x - 1);
  TTLG_CHECK(slice.block_a >= 1 && slice.block_a <= ext_a,
             "block_a out of range");
  cfg.in_vol = cfg.p_in * slice.block_a;
  cfg.a_chunks = ceil_div(ext_a, slice.block_a);
  cfg.a_rem = ext_a % slice.block_a;

  // OOS = output-prefix dims not already in the input prefix, in output
  // order (Alg. 4's dimsOnlyOut).
  for (Index j = 0; j < y; ++j) {
    if (fp[j] >= x) cfg.oos_dims.push_back(fp[j]);
  }
  if (cfg.oos_dims.empty()) {
    TTLG_CHECK(slice.block_b == 1, "block_b requires an output-only dim");
    cfg.oos_blocked_dim = -1;
    cfg.p_oos = 1;
    cfg.oos_vol = 1;
  } else {
    cfg.oos_blocked_dim = cfg.oos_dims.back();
    cfg.p_oos = 1;
    for (std::size_t k = 0; k + 1 < cfg.oos_dims.size(); ++k)
      cfg.p_oos *= fs.extent(cfg.oos_dims[k]);
    const Index ext_b = fs.extent(cfg.oos_blocked_dim);
    TTLG_CHECK(slice.block_b >= 1 && slice.block_b <= ext_b,
               "block_b out of range");
    cfg.oos_vol = cfg.p_oos * slice.block_b;
    cfg.b_chunks = ceil_div(ext_b, slice.block_b);
    cfg.b_rem = ext_b % slice.block_b;
  }
  cfg.slice_vol = cfg.in_vol * cfg.oos_vol;

  auto in_slice = [&](Index d) { return d < x; };
  auto in_oos = [&](Index d) {
    return std::find(cfg.oos_dims.begin(), cfg.oos_dims.end(), d) !=
           cfg.oos_dims.end();
  };
  auto slice_extent = [&](Index d) -> Index {
    if (d == cfg.in_blocked_dim) return slice.block_a;
    if (d == cfg.oos_blocked_dim) return slice.block_b;
    return fs.extent(d);
  };

  // Output-order decode of the slice (copy-out enumeration order).
  for (Index j = 0; j < rank; ++j) {
    const Index d = fp[j];
    if (in_slice(d) || in_oos(d)) {
      cfg.dec_dims.push_back(d);
      cfg.dec_extents.push_back(slice_extent(d));
    }
  }
  {
    Index stride = 1;
    for (std::size_t k = 0; k < cfg.dec_dims.size(); ++k) {
      if (cfg.dec_dims[k] == cfg.in_blocked_dim) {
        cfg.mask_a_stride = stride;
        cfg.mask_a_extent = cfg.dec_extents[k];
      }
      if (cfg.dec_dims[k] == cfg.oos_blocked_dim) {
        cfg.mask_b_stride = stride;
        cfg.mask_b_extent = cfg.dec_extents[k];
      }
      stride *= cfg.dec_extents[k];
    }
    TTLG_ASSERT(stride == cfg.slice_vol,
                "output-order decode must cover the whole slice");
  }

  // Contiguous-run features (paper §V "input stride" / "output stride").
  cfg.input_run = cfg.in_vol;
  cfg.output_run = 1;
  for (Index j = 0; j < rank; ++j) {
    const Index d = fp[j];
    if (!in_slice(d) && !in_oos(d)) break;
    cfg.output_run *= slice_extent(d);
    if (slice_extent(d) != fs.extent(d)) break;  // blocked dim ends the run
  }

  // Grid decode: chunkA, chunkB, then outer dims; possibly one outer dim
  // peeled off as the thread-coarsening loop (§IV-A).
  cfg.grid_extents = {cfg.a_chunks, cfg.b_chunks};
  cfg.grid_in_strides = {slice.block_a * fs.stride(cfg.in_blocked_dim),
                         cfg.oos_blocked_dim >= 0
                             ? slice.block_b * fs.stride(cfg.oos_blocked_dim)
                             : 0};
  cfg.grid_out_strides = {
      slice.block_a * fo.stride(fp.position_of(cfg.in_blocked_dim)),
      cfg.oos_blocked_dim >= 0
          ? slice.block_b * fo.stride(fp.position_of(cfg.oos_blocked_dim))
          : 0};
  const bool coarsening_allowed =
      enable_coarsening &&
      problem.volume() * problem.elem_size > kCoarsenMinBytes;
  for (Index d = 0; d < rank; ++d) {
    if (in_slice(d) || in_oos(d)) continue;
    const Index in_str = fs.stride(d);
    const Index out_str = fo.stride(fp.position_of(d));
    if (coarsening_allowed && cfg.coarsen_extent == 1 && fs.extent(d) >= 4 &&
        fs.extent(d) <= 32) {
      cfg.coarsen_extent = fs.extent(d);
      cfg.coarsen_in_stride = in_str;
      cfg.coarsen_out_stride = out_str;
      continue;
    }
    cfg.grid_extents.push_back(fs.extent(d));
    cfg.grid_in_strides.push_back(in_str);
    cfg.grid_out_strides.push_back(out_str);
  }
  cfg.grid_blocks = 1;
  for (Index e : cfg.grid_extents) cfg.grid_blocks *= e;
  cfg.block_threads = pick_block_threads(cfg.slice_vol);

  // Strength-reduced decode state.
  cfg.decoder.init(cfg.grid_extents, cfg.grid_in_strides,
                   cfg.grid_out_strides);
  cfg.in_vol_div = FastDiv(cfg.in_vol);
  if (cfg.mask_a_stride > 0) {
    cfg.mask_a_stride_div = FastDiv(cfg.mask_a_stride);
    cfg.mask_a_extent_div = FastDiv(cfg.mask_a_extent);
  }
  if (cfg.mask_b_stride > 0) {
    cfg.mask_b_stride_div = FastDiv(cfg.mask_b_stride);
    cfg.mask_b_extent_div = FastDiv(cfg.mask_b_extent);
  }

  if (!with_offsets) return cfg;

  // ---- Alg. 4: offset indirection arrays ----
  cfg.input_offset.resize(static_cast<std::size_t>(cfg.oos_vol));
  for (Index r = 0; r < cfg.oos_vol; ++r) {
    Index rest = r, off = 0;
    for (Index d : cfg.oos_dims) {
      const Index e = slice_extent(d);
      off += (rest % e) * fs.stride(d);
      rest /= e;
    }
    cfg.input_offset[static_cast<std::size_t>(r)] = off;
  }

  // Strides of each slice dim inside the combined input index c and the
  // combined OOS index r.
  std::vector<Index> c_stride(static_cast<std::size_t>(rank), 0);
  {
    Index s = 1;
    for (Index d = 0; d < x; ++d) {
      c_stride[static_cast<std::size_t>(d)] = s;
      s *= slice_extent(d);
    }
  }
  std::vector<Index> r_stride(static_cast<std::size_t>(rank), 0);
  {
    Index s = 1;
    for (Index d : cfg.oos_dims) {
      r_stride[static_cast<std::size_t>(d)] = s;
      s *= slice_extent(d);
    }
  }

  cfg.output_offset.resize(static_cast<std::size_t>(cfg.slice_vol));
  cfg.sm_out_offset.resize(static_cast<std::size_t>(cfg.slice_vol));
  for (Index p = 0; p < cfg.slice_vol; ++p) {
    Index rest = p, out_off = 0, c = 0, r = 0;
    for (std::size_t k = 0; k < cfg.dec_dims.size(); ++k) {
      const Index d = cfg.dec_dims[k];
      const Index e = cfg.dec_extents[k];
      const Index idx = rest % e;
      rest /= e;
      out_off += idx * fo.stride(fp.position_of(d));
      if (in_slice(d)) {
        c += idx * c_stride[static_cast<std::size_t>(d)];
      } else {
        r += idx * r_stride[static_cast<std::size_t>(d)];
      }
    }
    cfg.output_offset[static_cast<std::size_t>(p)] = out_off;
    cfg.sm_out_offset[static_cast<std::size_t>(p)] = r * cfg.in_vol + c;
  }
  return cfg;
}

std::vector<OaSlice> enumerate_oa_slices(const TransposeProblem& problem,
                                         Index max_smem_elems) {
  const Shape& fs = problem.fused.shape;
  const Permutation& fp = problem.fused.perm;
  const Shape& fo = problem.fused_out;
  const Index rank = fs.rank();
  constexpr std::size_t kMaxCandidates = 96;

  // Reserve headroom for the staggered-padding layout (1 extra per 32).
  max_smem_elems -= max_smem_elems / 33 + 1;
  const Index x_min = std::max<Index>(1, input_prefix_reaching(fs, kWS));
  const Index y_min =
      std::max<Index>(1, output_prefix_reaching(fs, fp, kWS));

  std::vector<OaSlice> out;
  std::set<std::tuple<Index, Index, Index, Index>> seen;
  auto push = [&](Index x, Index ba, Index y, Index bb) {
    if (seen.insert({x, ba, y, bb}).second) {
      OaSlice s;
      s.dims_in = x;
      s.block_a = ba;
      s.dims_out = y;
      s.block_b = bb;
      out.push_back(s);
    }
  };

  for (Index x = x_min; x <= rank && out.size() < kMaxCandidates; ++x) {
    Index p_in = 1;
    for (Index d = 0; d + 1 < x; ++d) p_in *= fs.extent(d);
    const Index ext_a = fs.extent(x - 1);

    // block_a values giving combined input volumes near multiples of WS.
    std::set<Index> ba_set;
    for (Index limit = kWS; limit <= 8 * kWS; limit += kWS) {
      const Index ba = std::min(ext_a, ceil_div(limit, p_in));
      ba_set.insert(ba);
    }
    if (p_in >= kWS) ba_set.insert(1);
    ba_set.insert(ext_a);

    for (Index ba : ba_set) {
      const Index in_vol = p_in * ba;
      if (in_vol > max_smem_elems) continue;

      for (Index y = y_min; y <= rank; ++y) {
        // OOS for this (x, y).
        std::vector<Index> oos;
        for (Index j = 0; j < y; ++j)
          if (fp[j] >= x) oos.push_back(fp[j]);

        if (oos.empty()) {
          if (in_vol <= max_smem_elems) push(x, ba, y, 1);
          continue;
        }
        Index p_oos = 1;
        for (std::size_t k = 0; k + 1 < oos.size(); ++k)
          p_oos *= fs.extent(oos[k]);
        const Index ext_b = fs.extent(oos.back());

        std::set<Index> bb_set;
        for (Index bb = 1; bb <= ext_b; bb *= 2) bb_set.insert(bb);
        bb_set.insert(ext_b);
        // Values that make the combined OUTPUT prefix volume land on a
        // multiple of WS (Alg. 3's warp-efficiency goal).
        Index q_out = 1;
        for (Index j = 0; j + 1 < y; ++j) q_out *= fo.extent(j);
        if (fp[y - 1] == oos.back()) {
          for (Index limit = kWS; limit <= 4 * kWS; limit += kWS)
            bb_set.insert(std::min(ext_b, ceil_div(limit, q_out)));
        }

        for (Index bb : bb_set) {
          const Index oos_vol = p_oos * bb;
          if (in_vol * oos_vol > max_smem_elems) continue;
          push(x, ba, y, bb);
          if (out.size() >= kMaxCandidates) break;
        }
        if (out.size() >= kMaxCandidates) break;
      }
      if (out.size() >= kMaxCandidates) break;
    }
  }

  // Guaranteed-feasible fallback: y = 1 keeps the output-only volume at
  // most 1, so the shared buffer is just the combined input slice.
  if (out.empty()) {
    Index x = 1, p = 1;
    while (x < rank && p * fs.extent(x - 1) < kWS) {
      p *= fs.extent(x - 1);
      ++x;
    }
    const Index ba =
        std::min(fs.extent(x - 1), std::max<Index>(1, max_smem_elems / p));
    push(x, ba, 1, 1);
  }
  return out;
}

}  // namespace ttlg
