// Closed-form block-class census (gpusim/chunk_classes.hpp): per-class
// counts and the id of the k-th block of a class over any block-id
// window must equal a brute-force scan of a reference classifier, for
// the chunked shapes every producer uses (OD/OA/FVI kernels, the naive
// tail and the TTGT GEMM).
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.hpp"
#include "gpusim/chunk_classes.hpp"

namespace ttlg::sim {
namespace {

using Classifier = std::function<int(std::int64_t)>;

// Checks census and k-th occurrence for every class over [lo, hi)
// against a scan of `ref`, which must classify the same grid.
void check_window(const ChunkClasses& cc, const Classifier& ref,
                  std::int64_t lo, std::int64_t hi) {
  std::array<std::vector<std::int64_t>, ChunkClasses::kCount> members;
  for (std::int64_t b = lo; b < hi; ++b) {
    const int c = ref(b);
    ASSERT_EQ(cc.class_of(b), c) << "block " << b;
    members[static_cast<std::size_t>(c)].push_back(b);
  }
  for (int c = 0; c < ChunkClasses::kCount; ++c) {
    const auto& m = members[static_cast<std::size_t>(c)];
    const std::int64_t before = cc.count_below(c, lo);
    ASSERT_EQ(cc.count_below(c, hi) - before,
              static_cast<std::int64_t>(m.size()))
        << "class " << c << " window [" << lo << ", " << hi << ")";
    for (std::size_t k = 0; k < m.size(); ++k)
      ASSERT_EQ(cc.nth(c, before + static_cast<std::int64_t>(k)), m[k])
          << "class " << c << " occurrence " << k;
  }
}

// The chunk classifier every kernel launch used: slot 0 = a, slot 1 = b.
Classifier chunk_reference(std::int64_t a_chunks, bool a_partial,
                           std::int64_t b_chunks, bool b_partial) {
  return [=](std::int64_t bid) {
    const std::int64_t a = bid % a_chunks;
    const std::int64_t b = bid / a_chunks % b_chunks;
    return (a_partial && a == a_chunks - 1 ? 1 : 0) +
           (b_partial && b == b_chunks - 1 ? 2 : 0);
  };
}

TEST(ChunkClasses, CensusMatchesBruteForceOnRandomGrids) {
  Rng rng(0xc1a55e5);
  for (int iter = 0; iter < 500; ++iter) {
    const ChunkClasses cc{static_cast<std::int64_t>(rng.uniform(1, 9)),
                          rng.uniform(0, 1) != 0,
                          static_cast<std::int64_t>(rng.uniform(1, 9)),
                          rng.uniform(0, 1) != 0};
    const std::int64_t outer = static_cast<std::int64_t>(rng.uniform(1, 5));
    const std::int64_t grid = cc.a_chunks * cc.b_chunks * outer;
    const std::int64_t lo =
        static_cast<std::int64_t>(rng.uniform(0, static_cast<std::uint64_t>(grid - 1)));
    const std::int64_t count = static_cast<std::int64_t>(
        rng.uniform(1, static_cast<std::uint64_t>(grid - lo)));
    SCOPED_TRACE(::testing::Message()
                 << "a " << cc.a_chunks << "/" << cc.a_partial << " b "
                 << cc.b_chunks << "/" << cc.b_partial << " outer " << outer
                 << " window [" << lo << ", " << lo + count << ")");
    const Classifier ref =
        chunk_reference(cc.a_chunks, cc.a_partial, cc.b_chunks, cc.b_partial);
    check_window(cc, ref, 0, grid);
    check_window(cc, ref, lo, lo + count);
  }
}

TEST(ChunkClasses, CountBelowIsTheRunningCensus) {
  const ChunkClasses cc{3, true, 4, true};
  std::array<std::int64_t, ChunkClasses::kCount> running{};
  for (std::int64_t n = 0; n <= 3 * 4 * 3; ++n) {
    for (int c = 0; c < ChunkClasses::kCount; ++c)
      ASSERT_EQ(cc.count_below(c, n), running[static_cast<std::size_t>(c)])
          << "class " << c << " n " << n;
    ++running[static_cast<std::size_t>(cc.class_of(n))];
  }
}

TEST(ChunkClasses, NaiveTailShape) {
  // The naive kernel: one chunk per block, only the tail block differs.
  for (const std::int64_t grid : {1, 2, 7, 64}) {
    for (const bool tail : {false, true}) {
      const Classifier ref = [=](std::int64_t b) {
        return (tail && b == grid - 1) ? 1 : 0;
      };
      const ChunkClasses cc{grid, tail, 1, false};
      check_window(cc, ref, 0, grid);
      check_window(cc, ref, grid / 2, grid);
    }
  }
}

TEST(ChunkClasses, GemmTileShape) {
  // The TTGT GEMM: tm = bid % tiles_m, tn = bid / tiles_m, remainder
  // tiles along m and n.
  for (const std::int64_t m : {32, 40, 96, 97}) {
    for (const std::int64_t n : {24, 32, 70}) {
      const std::int64_t tiles_m = (m + 31) / 32;
      const std::int64_t tiles_n = (n + 31) / 32;
      const Classifier ref = [=](std::int64_t bid) {
        const std::int64_t tm = bid % tiles_m;
        const std::int64_t tn = bid / tiles_m;
        return (m % 32 != 0 && tm == tiles_m - 1 ? 1 : 0) +
               (n % 32 != 0 && tn == tiles_n - 1 ? 2 : 0);
      };
      const ChunkClasses cc{tiles_m, m % 32 != 0, tiles_n, n % 32 != 0};
      check_window(cc, ref, 0, tiles_m * tiles_n);
    }
  }
}

TEST(ChunkClasses, EmptyClassesCountZero) {
  const ChunkClasses cc{5, false, 3, false};  // no remainders: class 0 only
  for (int c = 1; c < ChunkClasses::kCount; ++c)
    EXPECT_EQ(cc.count_below(c, 1000), 0);
  EXPECT_EQ(cc.count_below(0, 1000), 1000);
  EXPECT_EQ(cc.nth(0, 999), 999);
}

}  // namespace
}  // namespace ttlg::sim
