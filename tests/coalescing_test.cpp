#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <set>

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

// The closed forms and early exits must agree with the definitions on
// arbitrary warps: distinct segments touched, and the largest number of
// distinct addresses on one bank minus one. Addresses come from narrow
// windows (so segments and banks collide) and are sorted for half the
// warps (the monotone gather shape).
TEST(Coalescing, MatchesDefinitionsOnRandomWarps) {
  Rng rng(4242);
  for (int trial = 0; trial < 4000; ++trial) {
    LaneArray a;
    const std::int64_t base = static_cast<std::int64_t>(rng.uniform(0, 4096)) - 2048;
    const std::int64_t span = static_cast<std::int64_t>(rng.uniform(1, 600));
    std::vector<std::int64_t> v(kWarpSize);
    for (auto& x : v) x = base + static_cast<std::int64_t>(rng.uniform(0, span));
    if (trial % 2 == 0) std::sort(v.begin(), v.end());
    const std::uint64_t mask = trial % 3 == 0 ? 0xffffffffULL : rng();
    for (int l = 0; l < kWarpSize; ++l)
      if ((mask >> l) & 1) a.set(l, v[static_cast<std::size_t>(l)]);
    if (!a.any_active()) continue;
    for (const int es : {1, 4, 8}) {
      std::set<std::int64_t> segs;
      for (int l = 0; l < kWarpSize; ++l)
        if (a.active(l)) segs.insert(((1 << 20) + a[l] * es) / 128);
      EXPECT_EQ(count_transactions(a, 1 << 20, es, 128),
                static_cast<int>(segs.size()))
          << "trial " << trial << " elem " << es;
    }
    std::map<std::int64_t, std::set<std::int64_t>> per_bank;
    for (int l = 0; l < kWarpSize; ++l)
      if (a.active(l)) per_bank[((a[l] % 32) + 32) % 32].insert(a[l]);
    std::size_t most = 0;
    for (const auto& [bank, addrs] : per_bank) most = std::max(most, addrs.size());
    EXPECT_EQ(count_bank_conflicts(a, 32), static_cast<int>(most) - 1)
        << "trial " << trial;
  }
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
