// Block-equivalence classes of a chunked grid, for class-sampled
// counting (Device::set_sampling).
//
// Every kernel the simulator runs numbers its blocks as
//   bid = a + a_chunks * (b + b_chunks * outer)
// over two chunked dimensions a and b, whose last chunk may be partial.
// Blocks with the same (partial-a bit | partial-b bit) class execute the
// same access pattern up to their base offsets. Along each axis the
// chunks of one class form a single interval — the partial last chunk,
// or every chunk before it — so a class is a product of two intervals
// repeated per outer step, and its census over any block-id window and
// the id of its k-th block are closed forms: a sampled launch never
// scans the grid.
#pragma once

#include <algorithm>
#include <cstdint>

#include "common/error.hpp"

namespace ttlg::sim {

struct ChunkClasses {
  static constexpr int kCount = 4;

  std::int64_t a_chunks = 1;
  bool a_partial = false;  ///< the last a-chunk is a remainder chunk
  std::int64_t b_chunks = 1;
  bool b_partial = false;  ///< the last b-chunk is a remainder chunk

  /// Class of a block from its decoded chunk coordinates.
  int class_of_chunk(std::int64_t a, std::int64_t b) const {
    return ((a_partial && a == a_chunks - 1) ? 1 : 0) |
           ((b_partial && b == b_chunks - 1) ? 2 : 0);
  }

  int class_of(std::int64_t bid) const {
    return class_of_chunk(bid % a_chunks, bid / a_chunks % b_chunks);
  }

  /// Number of class-c blocks with id in [0, n).
  std::int64_t count_below(int c, std::int64_t n) const {
    const Axis a = axis((c & 1) != 0, a_chunks, a_partial);
    const Axis b = axis((c & 2) != 0, b_chunks, b_partial);
    if (a.size == 0 || b.size == 0 || n <= 0) return 0;
    const std::int64_t tile = a_chunks * b_chunks;
    const std::int64_t r = n % tile;
    const std::int64_t bi = r / a_chunks;
    return n / tile * a.size * b.size + b.below(bi) * a.size +
           (b.contains(bi) ? a.below(r % a_chunks) : 0);
  }

  /// Id of the j-th (0-based) class-c block, counting from block 0.
  std::int64_t nth(int c, std::int64_t j) const {
    const Axis a = axis((c & 1) != 0, a_chunks, a_partial);
    const Axis b = axis((c & 2) != 0, b_chunks, b_partial);
    TTLG_ASSERT(a.size > 0 && b.size > 0 && j >= 0,
                "block class has no blocks");
    const std::int64_t t = j / a.size;
    return a.first + j % a.size +
           a_chunks * (b.first + t % b.size + b_chunks * (t / b.size));
  }

 private:
  /// The chunk indices of one axis in a class: [first, first + size).
  struct Axis {
    std::int64_t first = 0;
    std::int64_t size = 0;
    std::int64_t below(std::int64_t x) const {
      return std::clamp<std::int64_t>(x - first, 0, size);
    }
    bool contains(std::int64_t x) const {
      return x >= first && x < first + size;
    }
  };

  static Axis axis(bool bit, std::int64_t chunks, bool partial) {
    if (bit) return partial ? Axis{chunks - 1, 1} : Axis{0, 0};
    return Axis{0, partial ? chunks - 1 : chunks};
  }
};

}  // namespace ttlg::sim
