// Orthogonal-Distinct kernel configuration (paper Alg. 2 + the offset
// arrays of Alg. 4 specialized to the distinct case).
//
// The slice is a 2D A x B space: `a` indexes the combined input-prefix
// dimensions (contiguous in input memory), `b` the combined output-prefix
// dimensions (contiguous in output memory). The two prefixes are
// disjoint. The slowest dimension of each prefix may be blocked
// (block_a / block_b), turning its remainder into grid chunks.
#pragma once

#include <cstdint>
#include <vector>

#include "core/grid_decode.hpp"
#include "core/problem.hpp"

namespace ttlg {

/// Shared-memory tile pitch for Orthogonal-Distinct: 32x33, the padded
/// buffer of §III that staggers the element-to-bank mapping.
inline constexpr Index kOdTilePitch = 33;
inline constexpr Index kOdSmemElems = 32 * kOdTilePitch;

/// A candidate slice for the Orthogonal-Distinct kernel (what Alg. 3
/// enumerates and the performance model scores).
struct OdSlice {
  Index dims_in = 1;   ///< # fused input dims in the slice (>= 1)
  Index dims_out = 1;  ///< # fused output dims in the slice (>= 1)
  Index block_a = 1;   ///< blocking factor on input slice's slowest dim
  Index block_b = 1;   ///< blocking factor on output slice's slowest dim
  Index a_vol = 1;     ///< combined input slice volume (p_in * block_a)
  Index b_vol = 1;     ///< combined output slice volume (p_out * block_b)
};

struct OdConfig {
  OdSlice slice;

  Index p_in = 1;   ///< product of unblocked input-slice extents
  Index p_out = 1;  ///< product of unblocked output-slice extents

  Index in_blocked_dim = 0;    ///< fused input dim carrying block_a
  Index a_chunks = 1;          ///< ceil(extent / block_a)
  Index a_rem = 0;             ///< extent % block_a (0 = all chunks full)
  Index out_blocked_pos = 0;   ///< OUTPUT position of the dim carrying block_b
  Index b_chunks = 1;
  Index b_rem = 0;

  /// Grid decode: slot extents, fastest first: [a_chunks, b_chunks,
  /// outer dims...]; per-slot strides into input and output memory.
  std::vector<Index> grid_extents;
  std::vector<Index> grid_in_strides;
  std::vector<Index> grid_out_strides;
  Index grid_blocks = 1;
  int block_threads = 256;

  /// Strength-reduced block decode over the slots above.
  GridDecoder decoder;

  /// Shared-memory tile pitch; 33 = paper's padded buffer. 32 disables
  /// padding (exposes bank conflicts — for the ablation benchmark).
  Index tile_pitch = kOdTilePitch;

  /// Extra mod/div special instructions charged per warp-row, modelling
  /// kernels that compute tile offsets inline instead of reading the
  /// precomputed texture-resident offset arrays (TTLG's §IV trick).
  /// 0 for TTLG itself; the TTC-style baseline sets this.
  Index extra_row_specials = 0;

  /// Alg. 4 indirection arrays (host side; the plan uploads them to
  /// texture memory).
  std::vector<Index> in_offset;   ///< size b_vol: input offset of b
  std::vector<Index> out_offset;  ///< size a_vol: output offset of a

  /// Effective slice extents for a given (chunkA, chunkB) pair.
  Index a_eff(Index chunk_a) const {
    return (a_rem != 0 && chunk_a == a_chunks - 1) ? p_in * a_rem
                                                   : slice.a_vol;
  }
  Index b_eff(Index chunk_b) const {
    return (b_rem != 0 && chunk_b == b_chunks - 1) ? p_out * b_rem
                                                   : slice.b_vol;
  }
};

/// Build the kernel configuration for a candidate slice. The slice must
/// satisfy the Orthogonal-Distinct disjointness precondition (input
/// prefix dims and output prefix dims do not overlap) — checked.
/// `with_offsets = false` skips the Alg. 4 indirection arrays (enough
/// for performance prediction during the Alg. 3 search).
OdConfig build_od_config(const TransposeProblem& problem, const OdSlice& slice,
                         bool with_offsets = true);

/// Enumerate the admissible OD slices per Alg. 3: both combined volumes
/// stepped in multiples of the warp size up to a limit that keeps the
/// block count high enough for good occupancy.
std::vector<OdSlice> enumerate_od_slices(const TransposeProblem& problem,
                                         Index max_slice_vol);

}  // namespace ttlg
