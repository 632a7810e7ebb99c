// Strength-reduced grid decode: the block-id -> (base offsets, chunk
// coordinates) mapping every kernel performs at block entry.
//
// The reference formulation (paper Alg. 2/5/6/7 preambles) peels one
// grid slot per `%`/`/` pair. This class precomputes, at make_plan
// time, one Granlund–Montgomery FastDiv per slot, so the per-block
// decode costs multiplies and shifts only. The simulated
// special-instruction charge is unchanged (host-side strength reduction
// must never alter simulated counters).
#pragma once

#include <cstdint>
#include <vector>

#include "common/fastdiv.hpp"
#include "core/problem.hpp"

namespace ttlg {

/// One block decode: the decode() + compute_base() pair collapsed.
/// Kernels only consume the two base offsets and the first two slot
/// coordinates (the chunked A/B dims that drive remainder handling), so
/// only those are materialized.
struct GridEntry {
  Index in_base = 0;
  Index out_base = 0;
  Index idx0 = 0;  ///< slot-0 coordinate (chunk A / segment)
  Index idx1 = 0;  ///< slot-1 coordinate (chunk B / batch chunk)
};

class GridDecoder {
 public:
  GridDecoder() = default;

  /// Precompute the per-slot FastDivs.
  void init(const std::vector<Index>& extents,
            const std::vector<Index>& in_strides,
            const std::vector<Index>& out_strides);

  /// Number of grid slots (the simulator charges 2 special instructions
  /// per slot — identical to the reference decode).
  Index slots() const { return static_cast<Index>(divs_.size()); }

  /// Extent of grid slot i (the FastDiv divisor). The specialization
  /// builder cross-checks these against the launch's ChunkClasses
  /// before trusting idx0/idx1-based block classes.
  Index slot_extent(std::size_t i) const { return divs_[i].divisor(); }

  GridEntry decode(Index block_id) const {
    GridEntry e;
    Index rest = block_id;
    for (std::size_t i = 0; i < divs_.size(); ++i) {
      const DivMod dm = divs_[i].divmod(rest);
      rest = dm.quot;
      if (i == 0) e.idx0 = dm.rem;
      if (i == 1) e.idx1 = dm.rem;
      e.in_base += dm.rem * in_strides_[i];
      e.out_base += dm.rem * out_strides_[i];
    }
    return e;
  }

  /// Fixed-rank decode for the rank-bucketed specialized kernel
  /// variants: same arithmetic as decode() with a compile-time trip
  /// count the compiler fully unrolls. Requires slots() == Slots.
  template <int Slots>
  GridEntry decode_fixed(Index block_id) const {
    GridEntry e;
    Index rest = block_id;
    for (int i = 0; i < Slots; ++i) {
      const DivMod dm = divs_[static_cast<std::size_t>(i)].divmod(rest);
      rest = dm.quot;
      if (i == 0) e.idx0 = dm.rem;
      if (i == 1) e.idx1 = dm.rem;
      e.in_base += dm.rem * in_strides_[static_cast<std::size_t>(i)];
      e.out_base += dm.rem * out_strides_[static_cast<std::size_t>(i)];
    }
    return e;
  }

 private:
  std::vector<FastDiv> divs_;
  std::vector<Index> in_strides_;
  std::vector<Index> out_strides_;
};

}  // namespace ttlg
