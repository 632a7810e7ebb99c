#include "core/fvi_config.hpp"

#include <algorithm>
#include <set>

#include "common/error.hpp"
#include "gpusim/lane.hpp"

namespace ttlg {
namespace {

constexpr Index kWS = sim::kWarpSize;
constexpr Index kCoarsenMinBytes = 2 * 1024 * 1024;

Index ceil_div(Index a, Index b) { return (a + b - 1) / b; }

}  // namespace

FviLargeConfig build_fvi_large_config(const TransposeProblem& problem,
                                      bool enable_coarsening) {
  const Shape& fs = problem.fused.shape;
  const Permutation& fp = problem.fused.perm;
  const Shape& fo = problem.fused_out;
  const Index rank = fs.rank();
  TTLG_CHECK(fp.fvi_matches(), "FVI-Match-Large requires perm[0] == 0");

  FviLargeConfig cfg;
  cfg.n0 = fs.extent(0);

  // Split long rows into segments so short-and-fat tensors still fill
  // the machine; keep segments 32-element aligned for clean coalescing.
  const Index rows = fs.volume() / cfg.n0;
  const Index target_blocks = 480;  // ~2 waves on a 15-SM device
  cfg.seg_len = cfg.n0;
  while (rows * ceil_div(cfg.n0, cfg.seg_len) < target_blocks &&
         cfg.seg_len > 2 * 1024) {
    cfg.seg_len = ceil_div(cfg.seg_len / 2, kWS) * kWS;
  }
  cfg.segs = ceil_div(cfg.n0, cfg.seg_len);

  // Row batching over fused dim 1 (§IV-A coarsening, chunked so the
  // extent need not divide evenly): amortizes the block decode and the
  // per-wave scheduling cost for short rows, while keeping at least
  // ~target_blocks blocks resident.
  Index ext1 = rank >= 2 ? fs.extent(1) : 1;
  if (enable_coarsening && rank >= 2 && cfg.segs == 1) {
    const Index max_batch =
        std::max<Index>(1, rows * cfg.segs / target_blocks);
    cfg.batch = std::min<Index>({32, ext1, max_batch});
  }
  cfg.batch_chunks = rank >= 2 ? ceil_div(ext1, cfg.batch) : 1;
  cfg.batch_rem = rank >= 2 ? ext1 % cfg.batch : 0;
  if (rank >= 2) {
    cfg.batch_in_stride = fs.stride(1);
    cfg.batch_out_stride = fo.stride(fp.position_of(1));
  }

  cfg.grid_extents = {cfg.segs, cfg.batch_chunks};
  cfg.grid_in_strides = {cfg.seg_len,
                         rank >= 2 ? cfg.batch * cfg.batch_in_stride : 0};
  cfg.grid_out_strides = {cfg.seg_len,
                          rank >= 2 ? cfg.batch * cfg.batch_out_stride : 0};
  for (Index d = 2; d < rank; ++d) {
    cfg.grid_extents.push_back(fs.extent(d));
    cfg.grid_in_strides.push_back(fs.stride(d));
    cfg.grid_out_strides.push_back(fo.stride(fp.position_of(d)));
  }
  cfg.grid_blocks = 1;
  for (Index e : cfg.grid_extents) cfg.grid_blocks *= e;
  // Right-size the block to the warp-chunks of work it owns.
  const Index jchunks = ceil_div(std::min(cfg.seg_len, cfg.n0), kWS);
  cfg.block_threads = static_cast<int>(
      std::min<Index>(256, kWS * std::max<Index>(1, cfg.batch * jchunks)));
  cfg.decoder.init(cfg.grid_extents, cfg.grid_in_strides,
                   cfg.grid_out_strides);
  return cfg;
}

FviSmallConfig build_fvi_small_config(const TransposeProblem& problem,
                                      Index b, bool enable_coarsening) {
  const Shape& fs = problem.fused.shape;
  const Permutation& fp = problem.fused.perm;
  const Shape& fo = problem.fused_out;
  const Index rank = fs.rank();
  TTLG_CHECK(fp.fvi_matches(), "FVI-Match-Small requires perm[0] == 0");
  TTLG_CHECK(rank >= 3,
             "FVI-Match-Small needs distinct second dims on input/output");

  FviSmallConfig cfg;
  cfg.n0 = fs.extent(0);
  cfg.dim_ik = fp[1];
  TTLG_ASSERT(cfg.dim_ik != 0 && cfg.dim_ik != 1,
              "post-fusion, output dim 1 must differ from input dims 0/1");
  const Index ext1 = fs.extent(1);
  const Index extk = fs.extent(cfg.dim_ik);
  TTLG_CHECK(b >= 1 && b <= std::min<Index>({32, ext1, extk}),
             "blocking factor out of range");
  cfg.b = b;

  cfg.i1_chunks = ceil_div(ext1, b);
  cfg.i1_rem = ext1 % b;
  cfg.ik_chunks = ceil_div(extk, b);
  cfg.ik_rem = extk % b;

  // Padding (Fig. 4): element 0 of buffer row 1 must land on bank N0,
  // i.e. row_pitch ≡ n0 (mod 32).
  cfg.pad = ((cfg.n0 - (b * cfg.n0) % kWS) % kWS + kWS) % kWS;
  cfg.row_pitch = b * cfg.n0 + cfg.pad;
  cfg.smem_elems = b * cfg.row_pitch;

  cfg.in_stride_ik = fs.stride(cfg.dim_ik);
  cfg.out_stride_i1 = fo.stride(fp.position_of(1));

  cfg.grid_extents = {cfg.i1_chunks, cfg.ik_chunks};
  cfg.grid_in_strides = {b * fs.stride(1), b * fs.stride(cfg.dim_ik)};
  cfg.grid_out_strides = {b * fo.stride(fp.position_of(1)),
                          b * fo.stride(1)};
  const bool coarsening_allowed =
      enable_coarsening &&
      problem.volume() * problem.elem_size > kCoarsenMinBytes;
  for (Index d = 2; d < rank; ++d) {
    if (d == cfg.dim_ik) continue;
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
  cfg.block_threads = static_cast<int>(kWS * b);
  cfg.decoder.init(cfg.grid_extents, cfg.grid_in_strides,
                   cfg.grid_out_strides);
  cfg.n0_div = FastDiv(cfg.n0);
  return cfg;
}

std::vector<Index> enumerate_fvi_small_blockings(
    const TransposeProblem& problem, Index max_smem_elems) {
  const Shape& fs = problem.fused.shape;
  const Permutation& fp = problem.fused.perm;
  TTLG_CHECK(fs.rank() >= 3 && fp.fvi_matches(),
             "not an FVI-Match-Small problem");
  const Index n0 = fs.extent(0);
  const Index b_max =
      std::min<Index>({32, fs.extent(1), fs.extent(fp[1])});

  std::set<Index> bs;
  for (Index b = 1; b <= b_max; b *= 2) bs.insert(b);
  bs.insert(b_max);
  // Values making b*n0 a multiple of the warp size (full warp efficiency
  // in the copy loops).
  for (Index b = 1; b <= b_max; ++b) {
    if ((b * n0) % kWS == 0) {
      bs.insert(b);
      break;  // the smallest such b; larger multiples come from doubling
    }
  }
  std::vector<Index> out;
  for (Index b : bs) {
    const Index pad = ((n0 - (b * n0) % kWS) % kWS + kWS) % kWS;
    if (b * (b * n0 + pad) <= max_smem_elems) out.push_back(b);
  }
  TTLG_ASSERT(!out.empty(), "b = 1 must always fit in shared memory");
  return out;
}

}  // namespace ttlg
