#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "gpusim/texture_cache.hpp"

namespace ttlg::sim {
namespace {

TEST(TextureCache, ColdMissThenHit) {
  TextureCache c(16, 32);
  EXPECT_FALSE(c.access(0));
  EXPECT_TRUE(c.access(0));
  EXPECT_TRUE(c.access(31));  // same 32-byte line
  EXPECT_FALSE(c.access(32)); // next line
  EXPECT_EQ(c.misses(), 2);
  EXPECT_EQ(c.hits(), 2);
}

TEST(TextureCache, DirectMappedEviction) {
  TextureCache c(4, 32);  // lines 0 and 4 collide (slot = line % 4)
  EXPECT_FALSE(c.access(0 * 32));
  EXPECT_FALSE(c.access(4 * 32));
  EXPECT_FALSE(c.access(0 * 32));  // evicted by line 4
}

TEST(TextureCache, DisjointLinesAllFit) {
  TextureCache c(8, 32);
  for (int i = 0; i < 8; ++i) EXPECT_FALSE(c.access(i * 32));
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(c.access(i * 32));
}

TEST(TextureCache, ResetClearsState) {
  TextureCache c(8, 32);
  c.access(0);
  c.reset();
  EXPECT_EQ(c.hits(), 0);
  EXPECT_EQ(c.misses(), 0);
  EXPECT_FALSE(c.access(0));
}

TEST(TextureCache, RejectsBadGeometry) {
  EXPECT_THROW(TextureCache(0, 32), Error);
  EXPECT_THROW(TextureCache(8, 0), Error);
}

TEST(TextureCache, ReplayRepeatsChargeTheSameMissesWithoutProbing) {
  TextureCache c(4, 32);
  const std::vector<std::int64_t> l = {0, 4, 1, 8, 2};  // 0/4/8 collide
  EXPECT_EQ(c.replay(l), 5);  // cold
  // Slot 0 holds 8: 0, 4 and 8 miss again, 1 and 2 hit.
  EXPECT_EQ(c.replay(l), 3);
  EXPECT_EQ(c.replay(l), 3);
  EXPECT_EQ(c.misses(), 11);
  EXPECT_EQ(c.hits(), 4);
}

// Reference model: a cache driven only through per-line access_line().
std::int64_t model_replay(TextureCache& m, const std::vector<std::int64_t>& l) {
  std::int64_t misses = 0;
  for (const std::int64_t line : l) {
    if (!m.access_line(line)) ++misses;
  }
  return misses;
}

// Span replay (memoized) must be indistinguishable from per-line probing:
// same misses per call, same totals, same answer for every later probe.
TEST(TextureCache, ReplayPropertyMatchesPerLineModel) {
  Rng rng(0x7e57ca5e);
  for (int iter = 0; iter < 400; ++iter) {
    const std::int64_t lines = static_cast<std::int64_t>(rng.uniform(1, 64));
    const std::int64_t line_bytes = rng.uniform(0, 1) != 0 ? 128 : 32;
    TextureCache c(lines, line_bytes);
    TextureCache model(lines, line_bytes);
    // A few immutable spans over a small id universe, so spans collide
    // on slots with themselves and with each other.
    const std::int64_t universe = 3 * lines + 2;
    std::vector<std::vector<std::int64_t>> spans(3);
    for (auto& sp : spans) {
      const std::size_t n = static_cast<std::size_t>(rng.uniform(1, 40));
      for (std::size_t i = 0; i < n; ++i)
        sp.push_back(static_cast<std::int64_t>(
            rng.uniform(0, static_cast<std::uint64_t>(universe - 1))));
    }
    // Guarantee at least one same-slot collision inside span 0.
    spans[0].push_back(spans[0][0] + lines);
    for (int op = 0; op < 60; ++op) {
      const std::uint64_t kind = rng.uniform(0, 9);
      SCOPED_TRACE(::testing::Message() << "iter " << iter << " op " << op
                                        << " kind " << kind);
      if (kind <= 3) {  // same-span repeats
        const auto& sp = spans[rng.uniform(0, spans.size() - 1)];
        const int reps = static_cast<int>(rng.uniform(1, 4));
        for (int r = 0; r < reps; ++r)
          ASSERT_EQ(c.replay(sp), model_replay(model, sp));
      } else if (kind <= 6) {  // A/B/A/B alternation
        const auto& a = spans[0];
        const auto& b = spans[1 + rng.uniform(0, 1)];
        for (int r = 0; r < 4; ++r) {
          const auto& sp = r % 2 == 0 ? a : b;
          ASSERT_EQ(c.replay(sp), model_replay(model, sp));
        }
      } else if (kind <= 8) {  // direct probes in between
        const std::int64_t line = static_cast<std::int64_t>(
            rng.uniform(0, static_cast<std::uint64_t>(universe - 1)));
        if (rng.uniform(0, 1) != 0) {
          ASSERT_EQ(c.access_line(line), model.access_line(line));
        } else {
          ASSERT_EQ(c.access(line * line_bytes + line_bytes - 1),
                    model.access_line(line));
        }
      } else {
        c.reset();
        model.reset();
      }
      ASSERT_EQ(c.hits(), model.hits());
      ASSERT_EQ(c.misses(), model.misses());
    }
    for (std::int64_t line = 0; line < universe; ++line)
      ASSERT_EQ(c.access_line(line), model.access_line(line)) << line;
  }
}

}  // namespace
}  // namespace ttlg::sim
