#include "gpusim/coalescing.hpp"

#include <algorithm>
#include <bit>

namespace ttlg::sim {

namespace {

/// Segment/bank sizes are runtime values (device properties), so the
/// compiler cannot turn the per-lane / and % into shifts on its own.
/// Real devices use power-of-two transaction, line and bank widths, so
/// the hot loops test once and use shift/mask; the division stays as
/// the general fallback.
inline bool pow2(std::int64_t v) { return (v & (v - 1)) == 0; }

/// Byte address -> index of its `bytes`-sized segment (or line).
struct SegmentOf {
  explicit SegmentOf(std::int64_t bytes)
      : bytes(bytes),
        shift(pow2(bytes) ? std::countr_zero(static_cast<std::uint64_t>(bytes))
                          : -1) {}
  std::int64_t operator()(std::int64_t addr) const {
    return shift >= 0 ? addr >> shift : addr / bytes;
  }
  std::int64_t bytes;
  int shift;
};

constexpr std::uint64_t kFullMask = 0xffffffffULL;

/// True when the active lanes are [0, n) holding a0, a0+1, ...: O(1)
/// when the kernel built the array with fill_run, one compare pass for
/// a fully-active set()-built warp.
bool consecutive(const LaneArray& lanes, std::uint64_t mask) {
  if (lanes.is_run()) return true;
  if (mask != kFullMask) return false;
  for (int l = 1; l < kWarpSize; ++l)
    if (lanes[l] != lanes[0] + l) return false;
  return true;
}

/// Distinct segments of the active lanes' byte addresses, written to
/// `out` in first-touch order; returns how many.
int first_touch_segments(const LaneArray& lanes, std::uint64_t mask,
                         std::int64_t base_addr, std::int64_t elem_size,
                         const SegmentOf& seg_of, std::int64_t* out) {
  int n = 0;
  for (std::uint64_t m = mask; m != 0; m &= m - 1) {
    const std::int64_t seg =
        seg_of(base_addr + lanes[std::countr_zero(m)] * elem_size);
    if (std::find(out, out + n, seg) == out + n) out[n++] = seg;
  }
  return n;
}

}  // namespace

int count_transactions(const LaneArray& lanes, std::int64_t base_addr,
                       int elem_size, std::int64_t txn_bytes) {
  const std::uint64_t mask = lanes.active_mask();
  if (mask == 0) return 0;
  // Fast path: consecutive elements (the dominant pattern in
  // well-coalesced kernels). a0 reads the first ACTIVE lane — unset
  // lanes hold garbage.
  const std::int64_t a0 = lanes[std::countr_zero(mask)];
  if (consecutive(lanes, mask))
    return static_cast<int>(count_run_transactions(
        base_addr + a0 * elem_size, std::popcount(mask), elem_size, txn_bytes));
  const SegmentOf seg_of(txn_bytes);
  // Lanes in nondecreasing address order (gathers and scatters through
  // monotone offset tables): a segment repeats only back to back, so one
  // pass counts the distinct ones.
  {
    std::int64_t prev = -1;
    int count = 0;
    bool sorted = true;
    for (std::uint64_t m = mask; m != 0; m &= m - 1) {
      const std::int64_t seg =
          seg_of(base_addr + lanes[std::countr_zero(m)] * elem_size);
      if (count > 0 && seg < prev) {
        sorted = false;
        break;
      }
      count += count == 0 || seg != prev;
      prev = seg;
    }
    if (sorted) return count;
  }
  std::int64_t segs[kWarpSize];
  return first_touch_segments(lanes, mask, base_addr, elem_size, seg_of, segs);
}

int count_bank_conflicts(const LaneArray& lanes, int banks) {
  const std::uint64_t mask = lanes.active_mask();
  if (mask == 0) return 0;
  // Fast path: when every active lane maps to its own bank nothing
  // serializes — consecutive addresses, odd-pitch columns and padded
  // tiles all land here. One bitmask pass over the banks settles it.
  if (banks == kWarpSize) {
    if (lanes.is_run()) return 0;
    std::uint64_t seen = 0;
    bool distinct = true;
    for (std::uint64_t m = mask; m != 0 && distinct; m &= m - 1) {
      const std::uint64_t bit = std::uint64_t{1}
                                << (lanes[std::countr_zero(m)] & (kWarpSize - 1));
      distinct = (seen & bit) == 0;
      seen |= bit;
    }
    if (distinct) return 0;
  }
  // For each bank, count DISTINCT element addresses; identical addresses
  // broadcast. The access serializes into max-per-bank cycles.
  std::int64_t bank_addrs[kWarpSize][kWarpSize];  // [bank][slot]
  int bank_counts[kWarpSize] = {0};
  int max_per_bank = 0;
  const bool p2 = pow2(banks);
  const std::int64_t bmask = banks - 1;
  for (std::uint64_t m = mask; m != 0; m &= m - 1) {
    const int l = std::countr_zero(m);
    const std::int64_t a = lanes[l];
    const int bank = static_cast<int>(p2 ? a & bmask : a % banks);
    bool seen = false;
    for (int s = 0; s < bank_counts[bank]; ++s) {
      if (bank_addrs[bank][s] == a) {
        seen = true;
        break;
      }
    }
    if (!seen) {
      bank_addrs[bank][bank_counts[bank]++] = a;
      if (bank_counts[bank] > max_per_bank) max_per_bank = bank_counts[bank];
    }
  }
  return max_per_bank > 0 ? max_per_bank - 1 : 0;
}

int collect_tex_lines(const LaneArray& lanes, std::int64_t base_addr,
                      int elem_size, std::int64_t line_bytes,
                      std::int64_t* lines_out) {
  const std::uint64_t mask = lanes.active_mask();
  if (mask == 0) return 0;
  const SegmentOf line_of(line_bytes);
  // Fast path: consecutive lanes touch a dense line range.
  if (consecutive(lanes, mask)) {
    const std::int64_t b0 =
        base_addr + lanes[std::countr_zero(mask)] * elem_size;
    const std::int64_t last =
        line_of(b0 + std::popcount(mask) * elem_size - 1);
    int nlines = 0;
    for (std::int64_t line = line_of(b0); line <= last; ++line)
      lines_out[nlines++] = line;
    return nlines;
  }
  return first_touch_segments(lanes, mask, base_addr, elem_size, line_of,
                              lines_out);
}

std::int64_t count_run_transactions(std::int64_t byte0, std::int64_t n,
                                    int elem_size, std::int64_t txn_bytes) {
  const SegmentOf seg_of(txn_bytes);
  return seg_of(byte0 + n * elem_size - 1) - seg_of(byte0) + 1;
}

std::int64_t count_sorted_offset_transactions(std::int64_t base_addr,
                                              const std::int64_t* deltas,
                                              std::int64_t n,
                                              std::int64_t txn_bytes) {
  const SegmentOf seg_of(txn_bytes);
  std::int64_t prev = seg_of(base_addr + deltas[0]);
  std::int64_t count = 1;
  for (std::int64_t i = 1; i < n; ++i) {
    const std::int64_t seg = seg_of(base_addr + deltas[i]);
    if (seg != prev) {
      ++count;
      prev = seg;
    }
  }
  return count;
}

}  // namespace ttlg::sim
