#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "gpusim/coalescing.hpp"

namespace ttlg::sim {
namespace {

LaneArray consecutive(std::int64_t start, int count = kWarpSize) {
  LaneArray a;
  for (int l = 0; l < count; ++l) a.set(l, start + l);
  return a;
}

TEST(Coalescing, ConsecutiveFloatsAreOneTransaction) {
  // 32 floats = 128 bytes = exactly one transaction when aligned.
  EXPECT_EQ(count_transactions(consecutive(0), 0, 4, 128), 1);
}

TEST(Coalescing, ConsecutiveDoublesAreTwoTransactions) {
  EXPECT_EQ(count_transactions(consecutive(0), 0, 8, 128), 2);
}

TEST(Coalescing, MisalignedRunTouchesOneExtraSegment) {
  // Start 1 element past a boundary: floats now straddle 2 segments.
  EXPECT_EQ(count_transactions(consecutive(1), 0, 4, 128), 2);
  // Buffer base address shifts have the same effect.
  EXPECT_EQ(count_transactions(consecutive(0), 4, 4, 128), 2);
  // 256-aligned bases preserve alignment.
  EXPECT_EQ(count_transactions(consecutive(0), 256, 4, 128), 1);
}

TEST(Coalescing, StridedAccessSerializesFully) {
  LaneArray a;
  for (int l = 0; l < kWarpSize; ++l) a.set(l, l * 32);  // one elem per segment
  EXPECT_EQ(count_transactions(a, 0, 4, 128), 32);
}

TEST(Coalescing, BroadcastIsOneTransaction) {
  LaneArray a;
  for (int l = 0; l < kWarpSize; ++l) a.set(l, 123);
  EXPECT_EQ(count_transactions(a, 0, 8, 128), 1);
}

TEST(Coalescing, InactiveLanesDoNotCount) {
  LaneArray a;
  EXPECT_EQ(count_transactions(a, 0, 4, 128), 0);
  a.set(0, 0);
  a.set(31, 1000);
  EXPECT_EQ(count_transactions(a, 0, 4, 128), 2);
}

TEST(Coalescing, HalfWarpStillPaysFullSegment) {
  EXPECT_EQ(count_transactions(consecutive(0, 16), 0, 4, 128), 1);
  EXPECT_EQ(count_transactions(consecutive(0, 16), 0, 8, 128), 1);
}

TEST(BankConflicts, ConsecutiveIsConflictFree) {
  EXPECT_EQ(count_bank_conflicts(consecutive(0), 32), 0);
  EXPECT_EQ(count_bank_conflicts(consecutive(5), 32), 0);
}

TEST(BankConflicts, Stride32IsWorstCase) {
  LaneArray a;
  for (int l = 0; l < kWarpSize; ++l) a.set(l, l * 32);
  EXPECT_EQ(count_bank_conflicts(a, 32), 31);
}

TEST(BankConflicts, Stride33IsConflictFree) {
  // The paper's padded 32x33 buffer: column accesses stride by 33.
  LaneArray a;
  for (int l = 0; l < kWarpSize; ++l) a.set(l, l * 33);
  EXPECT_EQ(count_bank_conflicts(a, 32), 0);
}

TEST(BankConflicts, BroadcastDoesNotConflict) {
  LaneArray a;
  for (int l = 0; l < kWarpSize; ++l) a.set(l, 77);
  EXPECT_EQ(count_bank_conflicts(a, 32), 0);
}

TEST(BankConflicts, TwoWayConflict) {
  LaneArray a;
  for (int l = 0; l < kWarpSize; ++l)
    a.set(l, (l % 16) * 32 + (l / 16));  // two distinct addrs per bank... no:
  // lanes 0..15 hit banks 0 (addresses 0,32,...) — rebuild precisely:
  for (int l = 0; l < kWarpSize; ++l) a.set(l, (l % 2) * 32 + (l / 2));
  // addresses: {0,32,1,33,2,34,...}: bank b gets addresses b and b+32?
  // bank of 32+k is k: so bank k sees {k, k+32} for k<16 -> 2-way.
  EXPECT_EQ(count_bank_conflicts(a, 32), 1);
}

TEST(BankConflicts, PartialWarpStride32) {
  LaneArray a;
  for (int l = 0; l < 8; ++l) a.set(l, l * 32);
  EXPECT_EQ(count_bank_conflicts(a, 32), 7);
}

// The exact analyses are the simulator's only path, so their closed
// forms and early exits must agree with the definitions on arbitrary
// warps: distinct segments touched, the largest number of distinct
// addresses on one bank minus one, and the distinct texture lines in
// first-touch order.
void expect_matches_definitions(const LaneArray& a, int trial) {
  constexpr std::int64_t kBase = 1 << 20;
  for (const int es : {1, 4, 8}) {
    // 96 is a segment / line size that is not a power of two: it takes
    // the division fallbacks instead of the shift-and-mask paths.
    for (const std::int64_t txn : {128, 96}) {
      std::set<std::int64_t> segs;
      for (int l = 0; l < kWarpSize; ++l)
        if (a.active(l)) segs.insert((kBase + a[l] * es) / txn);
      EXPECT_EQ(count_transactions(a, kBase, es, txn),
                static_cast<int>(segs.size()))
          << "trial " << trial << " elem " << es << " txn " << txn;
    }
    for (const std::int64_t line_bytes : {32, 96}) {
      std::vector<std::int64_t> want;
      for (int l = 0; l < kWarpSize; ++l) {
        if (!a.active(l)) continue;
        const std::int64_t line = (kBase + a[l] * es) / line_bytes;
        if (std::find(want.begin(), want.end(), line) == want.end())
          want.push_back(line);
      }
      std::int64_t got[kWarpSize];
      const int n = collect_tex_lines(a, kBase, es, line_bytes, got);
      EXPECT_EQ(std::vector<std::int64_t>(got, got + n), want)
          << "trial " << trial << " elem " << es << " line " << line_bytes;
    }
  }
  std::map<std::int64_t, std::set<std::int64_t>> per_bank;
  for (int l = 0; l < kWarpSize; ++l)
    if (a.active(l)) per_bank[((a[l] % 32) + 32) % 32].insert(a[l]);
  std::size_t most = 0;
  for (const auto& [bank, addrs] : per_bank) most = std::max(most, addrs.size());
  EXPECT_EQ(count_bank_conflicts(a, 32), static_cast<int>(most) - 1)
      << "trial " << trial;
}

// Lane-by-lane warps: addresses from narrow windows (so segments, lines
// and banks collide), sorted for half the warps (the monotone gather
// shape). Bulk-filled warps: the fill_run / fill_strided /
// fill_const_at shapes, including the is_run() ones the closed forms
// solve without a lane pass.
TEST(Coalescing, MatchesDefinitionsOnRandomWarps) {
  Rng rng(4242);
  int runs = 0;
  for (int trial = 0; trial < 16000; ++trial) {
    LaneArray a;
    const std::int64_t base = static_cast<std::int64_t>(rng.uniform(0, 4096)) - 2048;
    const int n = static_cast<int>(rng.uniform(1, kWarpSize));
    switch (trial % 4) {
      case 0: {
        const auto span = static_cast<std::int64_t>(rng.uniform(1, 600));
        std::vector<std::int64_t> v(kWarpSize);
        for (auto& x : v)
          x = base + static_cast<std::int64_t>(rng.uniform(0, span));
        if (trial % 8 == 0) std::sort(v.begin(), v.end());
        const std::uint64_t mask = trial % 3 == 0 ? 0xffffffffULL : rng();
        for (int l = 0; l < kWarpSize; ++l)
          if ((mask >> l) & 1) a.set(l, v[static_cast<std::size_t>(l)]);
        break;
      }
      case 1:
        a.fill_run(base, n);
        break;
      case 2: {
        constexpr std::int64_t kStrides[] = {1, 0, 2, 3, 32, 33};
        a.fill_strided(base, kStrides[rng.uniform(0, 5)], n);
        break;
      }
      default: {
        // A broadcast run alone, or behind a consecutive run.
        const bool behind_run = trial % 8 == 3;
        const int lane0 =
            behind_run ? n - 1
                       : static_cast<int>(rng.uniform(0, kWarpSize - 1));
        if (behind_run && lane0 > 0) a.fill_run(base, lane0);
        const int width = static_cast<int>(rng.uniform(1, kWarpSize - lane0));
        a.fill_const_at(lane0, width,
                        base + static_cast<std::int64_t>(rng.uniform(0, 64)));
        break;
      }
    }
    if (!a.any_active()) continue;
    runs += a.is_run();
    expect_matches_definitions(a, trial);
  }
  // The closed-form paths were exercised, not only the lane passes.
  EXPECT_GT(runs, 2000);
}

class PaddingSweep : public ::testing::TestWithParam<int> {};

TEST_P(PaddingSweep, PitchConflictsMatchNumberTheory) {
  // Column access with stride = pitch: conflicts = 32/gcd-ish pattern;
  // exactly: lanes hit banks l*pitch % 32; max multiplicity =
  // 32 / (32 / gcd(pitch,32)).
  const int pitch = GetParam();
  LaneArray a;
  for (int l = 0; l < kWarpSize; ++l) a.set(l, l * pitch);
  int g = std::gcd(pitch, 32);
  EXPECT_EQ(count_bank_conflicts(a, 32), g - 1) << "pitch " << pitch;
}

INSTANTIATE_TEST_SUITE_P(Pitches, PaddingSweep,
                         ::testing::Values(1, 2, 3, 4, 8, 16, 17, 31, 32, 33,
                                           48, 64, 65));

}  // namespace
}  // namespace ttlg::sim
