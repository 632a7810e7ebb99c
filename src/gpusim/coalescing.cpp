#include "gpusim/coalescing.hpp"

#include <bit>

namespace ttlg::sim {

namespace {

/// Segment/bank sizes are runtime values (device properties), so the
/// compiler cannot turn the per-lane / and % into shifts on its own.
/// Real devices use power-of-two transaction, line and bank widths, so
/// the hot loops test once and use shift/mask; the division stays as
/// the general fallback.
inline bool pow2(std::int64_t v) { return (v & (v - 1)) == 0; }

inline int shift_of(std::int64_t v) {
  return std::countr_zero(static_cast<std::uint64_t>(v));
}

constexpr std::uint64_t kFullMask = 0xffffffffULL;

}  // namespace

int count_transactions(const LaneArray& lanes, std::int64_t base_addr,
                       int elem_size, std::int64_t txn_bytes) {
  const std::uint64_t mask = lanes.active_mask();
  if (mask == 0) return 0;
  // Fast path: consecutive elements (the dominant pattern in
  // well-coalesced kernels). O(1) when the kernel built the array with
  // fill_run; a fully-active set()-built warp still gets one compare
  // pass. a0 reads the first ACTIVE lane — unset lanes hold garbage.
  const std::int64_t a0 = lanes[std::countr_zero(mask)];
  bool consecutive = lanes.is_run();
  if (!consecutive && mask == kFullMask) {
    consecutive = true;
    for (int l = 1; l < kWarpSize; ++l) {
      if (lanes[l] != a0 + l) {
        consecutive = false;
        break;
      }
    }
  }
  if (consecutive) {
    const int n = std::popcount(mask);
    const std::int64_t b0 = base_addr + a0 * elem_size;
    const std::int64_t b1 = base_addr + (a0 + n - 1) * elem_size + elem_size - 1;
    if (pow2(txn_bytes)) {
      const int sh = shift_of(txn_bytes);
      return static_cast<int>((b1 >> sh) - (b0 >> sh) + 1);
    }
    return static_cast<int>(b1 / txn_bytes - b0 / txn_bytes + 1);
  }
  const bool p2 = pow2(txn_bytes);
  const int sh = p2 ? shift_of(txn_bytes) : 0;
  // Lanes in nondecreasing address order (gathers and scatters through
  // monotone offset tables): a segment repeats only back to back, so one
  // pass counts the distinct ones.
  {
    std::int64_t prev = -1;
    int count = 0;
    bool sorted = true;
    for (std::uint64_t m = mask; m != 0; m &= m - 1) {
      const std::int64_t addr = base_addr + lanes[std::countr_zero(m)] * elem_size;
      const std::int64_t seg = p2 ? addr >> sh : addr / txn_bytes;
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
  int nsegs = 0;
  for (std::uint64_t m = mask; m != 0; m &= m - 1) {
    const int l = std::countr_zero(m);
    const std::int64_t addr = base_addr + lanes[l] * elem_size;
    const std::int64_t seg = p2 ? addr >> sh : addr / txn_bytes;
    bool seen = false;
    for (int s = 0; s < nsegs; ++s) {
      if (segs[s] == seg) {
        seen = true;
        break;
      }
    }
    if (!seen) segs[nsegs++] = seg;
  }
  return nsegs;
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
  int nlines = 0;
  // Fast path: consecutive lanes touch a dense line range (O(1) for
  // fill_run-built arrays, one compare pass for full set()-built warps).
  bool consecutive = lanes.is_run();
  if (!consecutive && mask == kFullMask) {
    consecutive = true;
    for (int l = 1; l < kWarpSize; ++l) {
      if (lanes[l] != lanes[0] + l) {
        consecutive = false;
        break;
      }
    }
  }
  if (consecutive) {
    const std::int64_t a0 = lanes[std::countr_zero(mask)];
    const int n = std::popcount(mask);
    const std::int64_t es = elem_size;
    const std::int64_t b0 = base_addr + a0 * es;
    const std::int64_t b1 = base_addr + (a0 + n - 1) * es + es - 1;
    const bool p2 = pow2(line_bytes);
    const int sh = p2 ? shift_of(line_bytes) : 0;
    const std::int64_t first = p2 ? b0 >> sh : b0 / line_bytes;
    const std::int64_t last = p2 ? b1 >> sh : b1 / line_bytes;
    for (std::int64_t line = first; line <= last; ++line)
      lines_out[nlines++] = line;
    return nlines;
  }
  const bool p2 = pow2(line_bytes);
  const int sh = p2 ? shift_of(line_bytes) : 0;
  for (std::uint64_t m = mask; m != 0; m &= m - 1) {
    const int l = std::countr_zero(m);
    const std::int64_t addr =
        base_addr + lanes[l] * static_cast<std::int64_t>(elem_size);
    const std::int64_t line = p2 ? addr >> sh : addr / line_bytes;
    bool seen = false;
    for (int s = 0; s < nlines; ++s) {
      if (lines_out[s] == line) {
        seen = true;
        break;
      }
    }
    if (!seen) lines_out[nlines++] = line;
  }
  return nlines;
}

std::int64_t count_run_transactions(std::int64_t byte0, std::int64_t n,
                                    int elem_size, std::int64_t txn_bytes) {
  const std::int64_t b1 = byte0 + n * elem_size - 1;
  if (pow2(txn_bytes)) {
    const int sh = shift_of(txn_bytes);
    return (b1 >> sh) - (byte0 >> sh) + 1;
  }
  return b1 / txn_bytes - byte0 / txn_bytes + 1;
}

std::int64_t count_sorted_offset_transactions(std::int64_t base_addr,
                                              const std::int64_t* deltas,
                                              std::int64_t n,
                                              std::int64_t txn_bytes) {
  const bool p2 = pow2(txn_bytes);
  const int sh = p2 ? shift_of(txn_bytes) : 0;
  std::int64_t addr = base_addr + deltas[0];
  std::int64_t prev = p2 ? addr >> sh : addr / txn_bytes;
  std::int64_t count = 1;
  for (std::int64_t i = 1; i < n; ++i) {
    addr = base_addr + deltas[i];
    const std::int64_t seg = p2 ? addr >> sh : addr / txn_bytes;
    if (seg != prev) {
      ++count;
      prev = seg;
    }
  }
  return count;
}

}  // namespace ttlg::sim
