// Plan-time kernel specialization (core/stride_program.hpp): the
// compiled stride-program / templated / affine-bulk tiers must be
// BIT-IDENTICAL to the generic kernels — outputs, every LaunchCounters
// field, and the simulated time — at every element width, thread count
// and pattern-cache setting, including awkward prime and size-1
// extents. A separate set of directed tests pins that the tiers
// actually ENGAGE (a builder that rejected everything would pass the
// differential battery trivially on the generic path), that the tier
// survives a plan-file round trip, and that a corrupted tier record is
// classified kDataLoss.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/measure_plan.hpp"
#include "core/plan_io.hpp"
#include "core/ttlg.hpp"
#include "tensor/host_transpose.hpp"
#include "telemetry/metrics.hpp"

namespace ttlg {
namespace {

template <class T>
void fill_random_elems(Rng& rng, std::vector<T>& v) {
  if constexpr (std::is_integral_v<T>) {
    for (auto& x : v) x = static_cast<T>(rng());
  } else {
    for (auto& x : v)
      x = static_cast<T>(rng.uniform01() * 2048.0 - 1024.0);
  }
}

template <class T>
std::uint64_t bits_of(T v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(T));
  return b;
}

struct Artifacts {
  std::vector<std::uint64_t> out_bits;
  sim::LaunchCounters ctr;
  std::uint64_t time_bits = 0;
  Schema schema = Schema::kCopy;
  SpecTier tier = SpecTier::kGeneric;
};

template <class T>
Artifacts run_once(const Shape& shape, const Permutation& perm,
                   bool specialize, int nthreads, bool pattern_cache) {
  sim::Device dev;
  dev.set_num_threads(nthreads);
  dev.set_pattern_cache(pattern_cache);
  Tensor<T> host(shape);
  Rng rng(911);
  fill_random_elems(rng, host.vec());
  auto in = dev.alloc_copy<T>(host.vec());
  auto out = dev.alloc<T>(shape.volume());

  PlanOptions opts;
  opts.specialize = specialize;
  Plan plan;
  const auto res = transpose<T>(dev, in, out, shape, perm, opts, &plan);

  Artifacts a;
  a.schema = plan.schema();
  a.tier = plan.specialization_tier();
  a.ctr = res.counters;
  a.time_bits = std::bit_cast<std::uint64_t>(res.time_s);
  a.out_bits.reserve(static_cast<std::size_t>(shape.volume()));
  for (Index i = 0; i < shape.volume(); ++i)
    a.out_bits.push_back(bits_of<T>(out[i]));

  // Ground truth alongside the differential: both paths must also be
  // CORRECT, not merely identical to each other.
  const Tensor<T> expected = host_transpose(host, perm);
  for (Index i = 0; i < shape.volume(); ++i)
    if (out[i] != expected.at(i)) {
      ADD_FAILURE() << "wrong output at " << i << " (specialize="
                    << specialize << ", " << shape.to_string()
                    << perm.to_string() << ")";
      break;
    }
  return a;
}

void expect_identical(const Artifacts& spec, const Artifacts& gen,
                      const std::string& what) {
  EXPECT_EQ(spec.schema, gen.schema) << what;
  const sim::LaunchCounters& a = spec.ctr;
  const sim::LaunchCounters& b = gen.ctr;
  EXPECT_EQ(a.gld_transactions, b.gld_transactions) << what;
  EXPECT_EQ(a.gst_transactions, b.gst_transactions) << what;
  EXPECT_EQ(a.smem_load_ops, b.smem_load_ops) << what;
  EXPECT_EQ(a.smem_store_ops, b.smem_store_ops) << what;
  EXPECT_EQ(a.smem_bank_conflicts, b.smem_bank_conflicts) << what;
  EXPECT_EQ(a.tex_transactions, b.tex_transactions) << what;
  EXPECT_EQ(a.tex_misses, b.tex_misses) << what;
  EXPECT_EQ(a.special_ops, b.special_ops) << what;
  EXPECT_EQ(a.fma_ops, b.fma_ops) << what;
  EXPECT_EQ(a.grid_blocks, b.grid_blocks) << what;
  EXPECT_EQ(a.block_threads, b.block_threads) << what;
  EXPECT_EQ(a.shared_bytes_per_block, b.shared_bytes_per_block) << what;
  EXPECT_EQ(a.barriers, b.barriers) << what;
  EXPECT_EQ(a.payload_bytes, b.payload_bytes) << what;
  // Simulated time derives from the counters; compare bit-for-bit
  // anyway so a divergent timing path cannot hide.
  EXPECT_EQ(spec.time_bits, gen.time_bits) << what;
  ASSERT_EQ(spec.out_bits.size(), gen.out_bits.size()) << what;
  for (std::size_t i = 0; i < spec.out_bits.size(); ++i)
    ASSERT_EQ(spec.out_bits[i], gen.out_bits[i]) << what << " elem " << i;
}

struct Case {
  Extents ext;
  std::vector<Index> perm;
};

// One directed problem per schema of the taxonomy.
const std::vector<Case>& schema_cases() {
  static const std::vector<Case> cases = {
      {{64, 64, 4}, {0, 1, 2}},               // Copy
      {{64, 16, 16}, {0, 2, 1}},              // FVI-Match-Large
      {{16, 8, 24}, {0, 2, 1}},               // FVI-Match-Small
      {{40, 9, 40}, {2, 1, 0}},               // Orthogonal-Distinct
      {{8, 2, 24, 24, 24}, {2, 1, 3, 0, 4}},  // Orthogonal-Arbitrary
  };
  return cases;
}

// Awkward geometry: prime extents (nothing divides the block shape) and
// size-1 dimensions (degenerate strides, remainder-only classes).
const std::vector<Case>& awkward_cases() {
  static const std::vector<Case> cases = {
      {{31, 37}, {1, 0}},
      {{7, 11, 13}, {2, 0, 1}},
      {{1, 5, 1, 7}, {3, 2, 1, 0}},
      {{13, 1, 29}, {2, 1, 0}},
      {{1, 1, 64}, {2, 1, 0}},
      // Rank 7: the decoder exceeds the templated rank buckets, so the
      // dynamic-rank stride-program interpreter carries the launch.
      {{3, 4, 5, 2, 3, 4, 5}, {6, 5, 4, 3, 2, 1, 0}},
  };
  return cases;
}

template <class T>
void run_battery(const Case& c, int nthreads, bool pattern_cache,
                 SpecTier* engaged) {
  const Shape shape(c.ext);
  const Permutation perm(c.perm);
  const std::string what =
      shape.to_string() + perm.to_string() + " w" +
      std::to_string(sizeof(T)) + " t" + std::to_string(nthreads) +
      (pattern_cache ? " pc" : " nopc");
  const Artifacts gen = run_once<T>(shape, perm, false, nthreads,
                                    pattern_cache);
  const Artifacts spec = run_once<T>(shape, perm, true, nthreads,
                                     pattern_cache);
  EXPECT_EQ(gen.tier, SpecTier::kGeneric) << what;
  expect_identical(spec, gen, what);
  if (engaged && spec.tier > *engaged) *engaged = spec.tier;
}

void run_battery_sized(const Case& c, int elem_size, int nthreads,
                       bool pattern_cache, SpecTier* engaged) {
  switch (elem_size) {
    case 1:
      return run_battery<std::uint8_t>(c, nthreads, pattern_cache, engaged);
    case 2:
      return run_battery<std::uint16_t>(c, nthreads, pattern_cache, engaged);
    case 4:
      return run_battery<float>(c, nthreads, pattern_cache, engaged);
    default:
      return run_battery<double>(c, nthreads, pattern_cache, engaged);
  }
}

TEST(Specialization, BitIdenticalAcrossSchemasWidthsThreadsAndCache) {
  for (const Case& c : schema_cases()) {
    SpecTier engaged = SpecTier::kGeneric;
    for (int elem_size : {1, 2, 4, 8})
      for (int nthreads : {1, 4})
        for (bool pc : {true, false})
          run_battery_sized(c, elem_size, nthreads, pc, &engaged);
    // The differential is only meaningful if the specialized path
    // actually ran: every directed schema case must compile to a
    // non-generic tier.
    EXPECT_NE(engaged, SpecTier::kGeneric)
        << Shape(c.ext).to_string() << Permutation(c.perm).to_string();
  }
}

TEST(Specialization, BitIdenticalOnPrimeAndUnitExtents) {
  for (const Case& c : awkward_cases())
    for (int elem_size : {1, 8})
      for (int nthreads : {1, 4})
        run_battery_sized(c, elem_size, nthreads, true, nullptr);
}

TEST(Specialization, AffineTierEngagesAndIsCounted) {
  // FVI-Match-Large moves whole contiguous runs in both directions:
  // every access is affine, so the whole-tile phase-table tier must
  // engage, and the always-on tier counter must record it.
  auto& reg = telemetry::MetricsRegistry::global();
  const std::int64_t before =
      reg.counter("plan.specialization_tier.affine_bulk").value();
  sim::Device dev;
  Plan plan = make_plan(dev, Shape({64, 16, 16}), Permutation({0, 2, 1}));
  EXPECT_EQ(plan.schema(), Schema::kFviMatchLarge);
  EXPECT_EQ(plan.specialization_tier(), SpecTier::kAffineBulk);
  const std::int64_t after =
      reg.counter("plan.specialization_tier.affine_bulk").value();
  EXPECT_EQ(after, before + 1);
  // The tier is part of the plan's self-description.
  EXPECT_NE(plan.describe().find("specialization=affine_bulk"),
            std::string::npos);
}

TEST(Specialization, OptOutRestoresGenericExactly) {
  sim::Device dev;
  PlanOptions opts;
  opts.specialize = false;
  Plan plan = make_plan(dev, Shape({64, 16, 16}), Permutation({0, 2, 1}),
                        opts);
  EXPECT_EQ(plan.specialization_tier(), SpecTier::kGeneric);
  EXPECT_NE(plan.describe().find("specialization=generic"),
            std::string::npos);
}

TEST(Specialization, EnvSwitchDisablesGlobally) {
  ASSERT_EQ(setenv("TTLG_SPECIALIZE", "0", 1), 0);
  sim::Device dev;
  Plan plan = make_plan(dev, Shape({64, 16, 16}), Permutation({0, 2, 1}));
  ASSERT_EQ(unsetenv("TTLG_SPECIALIZE"), 0);
  EXPECT_EQ(plan.specialization_tier(), SpecTier::kGeneric);

  // And the generic run it produces is bit-identical to an
  // opts.specialize=false run (same artifacts, not merely same tier).
  const Shape shape({64, 16, 16});
  const Permutation perm({0, 2, 1});
  Tensor<double> host(shape);
  host.fill_iota();
  auto in = dev.alloc_copy<double>(host.vec());
  auto out = dev.alloc<double>(shape.volume());
  const auto env_res = plan.execute<double>(in, out);

  PlanOptions opts;
  opts.specialize = false;
  Plan opt_plan = make_plan(dev, shape, perm, opts);
  auto out2 = dev.alloc<double>(shape.volume());
  const auto opt_res = opt_plan.execute<double>(in, out2);
  EXPECT_EQ(env_res.counters.gld_transactions,
            opt_res.counters.gld_transactions);
  EXPECT_EQ(env_res.counters.gst_transactions,
            opt_res.counters.gst_transactions);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(env_res.time_s),
            std::bit_cast<std::uint64_t>(opt_res.time_s));
  for (Index i = 0; i < shape.volume(); ++i)
    ASSERT_EQ(out[i], out2[i]) << i;
}

TEST(Specialization, MeasuredPlansSpecializeToo) {
  sim::Device dev;
  Plan plan =
      make_plan_measured(dev, Shape({40, 9, 40}), Permutation({2, 1, 0}));
  EXPECT_NE(plan.specialization_tier(), SpecTier::kGeneric);
}

TEST(Specialization, CountOnlyAndSampledModesMatchToo) {
  // The counter path must agree in count-only mode (virtual buffers, no
  // storage) and under sampled counting, where only representative
  // blocks execute.
  for (int sampling : {0, 4}) {
    sim::LaunchCounters ctr[2];
    std::uint64_t time_bits[2];
    for (int s = 0; s < 2; ++s) {
      sim::Device dev;
      dev.set_mode(sim::ExecMode::kCountOnly);
      dev.set_sampling(sampling);
      auto in = dev.alloc_virtual<double>(40 * 9 * 40);
      auto out = dev.alloc_virtual<double>(40 * 9 * 40);
      PlanOptions opts;
      opts.specialize = s == 1;
      Plan plan =
          make_plan(dev, Shape({40, 9, 40}), Permutation({2, 1, 0}), opts);
      const auto res = plan.execute<double>(in, out);
      ctr[s] = res.counters;
      time_bits[s] = std::bit_cast<std::uint64_t>(res.time_s);
    }
    EXPECT_EQ(ctr[0].gld_transactions, ctr[1].gld_transactions)
        << "sampling " << sampling;
    EXPECT_EQ(ctr[0].gst_transactions, ctr[1].gst_transactions)
        << "sampling " << sampling;
    EXPECT_EQ(ctr[0].tex_transactions, ctr[1].tex_transactions)
        << "sampling " << sampling;
    EXPECT_EQ(ctr[0].tex_misses, ctr[1].tex_misses)
        << "sampling " << sampling;
    EXPECT_EQ(ctr[0].smem_bank_conflicts, ctr[1].smem_bank_conflicts)
        << "sampling " << sampling;
    EXPECT_EQ(time_bits[0], time_bits[1]) << "sampling " << sampling;
  }
}

// ---------------------------------------------------------------------
// Plan-file persistence of the tier (format v3).

TEST(Specialization, PlanFileRoundTripPreservesTier) {
  sim::Device dev;
  Plan original =
      make_plan(dev, Shape({64, 16, 16}), Permutation({0, 2, 1}));
  ASSERT_NE(original.specialization_tier(), SpecTier::kGeneric);

  std::stringstream buf;
  save_plan(buf, original);
  EXPECT_NE(buf.str().find("spec "), std::string::npos);
  Plan reloaded = load_plan(dev, buf);
  EXPECT_EQ(reloaded.specialization_tier(),
            original.specialization_tier());

  Tensor<double> host(Shape({64, 16, 16}));
  host.fill_iota();
  auto in = dev.alloc_copy<double>(host.vec());
  auto out1 = dev.alloc<double>(host.volume());
  auto out2 = dev.alloc<double>(host.volume());
  const auto r1 = original.execute<double>(in, out1);
  const auto r2 = reloaded.execute<double>(in, out2);
  EXPECT_EQ(r1.counters.gld_transactions, r2.counters.gld_transactions);
  EXPECT_EQ(r1.counters.gst_transactions, r2.counters.gst_transactions);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r1.time_s),
            std::bit_cast<std::uint64_t>(r2.time_s));
  for (Index i = 0; i < host.volume(); ++i)
    ASSERT_EQ(out1[i], out2[i]) << i;
}

// FNV-1a matching plan_io's integrity checksum, so corruption tests can
// forge a VALID checksum over a tampered body — proving the tier check
// itself fires, not merely the checksum.
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string with_spec_record(const std::string& text,
                             const std::string& record) {
  // "spec" is the final body record, so everything after it is the
  // checksum line: rebuild the tail wholesale.
  const std::size_t pos = text.find("\nspec ");
  EXPECT_NE(pos, std::string::npos);
  const std::string payload = text.substr(0, pos + 1) + record + "\n";
  // Re-checksum the tampered payload so only the tier logic can object.
  std::ostringstream out;
  out << payload << "checksum " << std::hex << fnv1a(payload) << '\n';
  return out.str();
}

ErrorCode load_code(sim::Device& dev, const std::string& text) {
  std::stringstream s(text);
  try {
    load_plan(dev, s);
  } catch (const Error& e) {
    return e.code();
  }
  ADD_FAILURE() << "load_plan accepted tampered plan";
  return ErrorCode::kInternal;
}

TEST(Specialization, CorruptedTierRecordIsDataLoss) {
  sim::Device dev;
  Plan plan = make_plan(dev, Shape({64, 16, 16}), Permutation({0, 2, 1}));
  const int tier = static_cast<int>(plan.specialization_tier());
  ASSERT_NE(tier, 0);
  std::stringstream buf;
  save_plan(buf, plan);
  const std::string text = buf.str();

  // Out-of-range tier, valid checksum: rejected by the range check.
  EXPECT_EQ(load_code(dev, with_spec_record(text, "spec 9")),
            ErrorCode::kDataLoss);
  // In-range but WRONG tier, valid checksum: compilation is
  // deterministic, so the re-derived tier disagrees -> data loss.
  const int wrong = tier == 1 ? 2 : 1;
  EXPECT_EQ(load_code(dev, with_spec_record(
                               text, "spec " + std::to_string(wrong))),
            ErrorCode::kDataLoss);
  // Tier record replaced by garbage, valid checksum.
  EXPECT_EQ(load_code(dev, with_spec_record(text, "spec x")),
            ErrorCode::kDataLoss);
  // A stored tier of 0 (saved by a generic-mode process) is NOT an
  // error: the plan loads and simply stays generic.
  std::stringstream generic(with_spec_record(text, "spec 0"));
  Plan loaded = load_plan(dev, generic);
  EXPECT_EQ(loaded.specialization_tier(), SpecTier::kGeneric);
}

// The compiler's rejection paths: each leaves the plan generic (no
// program) and bumps its own plan.spec.reject.* counter. The inputs are
// a real selection with one field made inconsistent.
TEST(Specialization, RejectionsAreCountedPerReason) {
  sim::Device dev;
  PlanOptions opts;
  opts.specialize = false;
  const Plan plan = make_plan(dev, Shape({16, 16, 16, 16, 16, 16}),
                              Permutation({5, 0, 2, 3, 4, 1}), opts);
  ASSERT_EQ(plan.schema(), Schema::kOrthogonalDistinct);
  auto& reg = telemetry::MetricsRegistry::global();
  const auto build = [&](const TransposeProblem& problem,
                         const KernelSelection& sel) {
    SpecBuildInput in;
    in.problem = &problem;
    in.sel = &sel;
    in.props = &dev.props();
    return build_spec_program(in);
  };
  const auto expect_reject = [&](const char* reason,
                                 const TransposeProblem& problem,
                                 const KernelSelection& sel) {
    const std::string name = std::string("plan.spec.reject.") + reason;
    const std::int64_t before = reg.counter_value(name);
    EXPECT_EQ(build(problem, sel), nullptr) << reason;
    EXPECT_EQ(reg.counter_value(name), before + 1) << reason;
  };
  ASSERT_NE(build(plan.problem(), plan.selection()), nullptr);

  KernelSelection bad_layout = plan.selection();
  bad_layout.od.a_chunks += 1;  // no longer the grid's first slot
  expect_reject("layout", plan.problem(), bad_layout);

  KernelSelection no_offsets = plan.selection();
  no_offsets.od.in_offset.clear();  // texture reads fall off the table
  expect_reject("untraceable", plan.problem(), no_offsets);

  TransposeProblem odd_width = plan.problem();
  odd_width.elem_size = 3;
  expect_reject("width", odd_width, plan.selection());
}

}  // namespace
}  // namespace ttlg
