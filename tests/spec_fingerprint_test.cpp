// Stride-program compiler regression oracle: every permutation of 16^6
// and 15^6 (8-byte elements) must compile to exactly the programs stored
// in tests/data/spec_program_fingerprints.txt — the same tier and a
// matching hash over everything a program holds (footprint, per-class
// counter deltas, global ops, offset tables, texture lines, phase
// tables and copy tables). Any change to how build_spec_program records,
// compresses or verifies shows up here as a named permutation.
//
// To regenerate the data after an INTENDED change to compiled programs,
// run test_spec_fingerprint with --gtest_also_run_disabled_tests
// --gtest_filter='*Regenerate*'.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <map>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "core/ttlg.hpp"

namespace ttlg {
namespace {

const std::string kDataFile =
    std::string(TTLG_TEST_DATA_DIR) + "/spec_program_fingerprints.txt";

/// FNV-1a over 64-bit words.
struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void add(std::int64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= static_cast<std::uint64_t>(v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  template <class Vec>
  void add_all(const Vec& v) {
    add(static_cast<std::int64_t>(v.size()));
    for (auto x : v) add(static_cast<std::int64_t>(x));
  }
};

std::uint64_t program_hash(const SpecProgram* p) {
  Fnv f;
  if (p == nullptr) {
    f.add(-1);
    return f.h;
  }
  f.add(static_cast<int>(p->tier));
  f.add(p->footprint_bytes());
  f.add(p->elem_size);
  f.add(p->txn_bytes);
  for (const ClassProgram& c : p->cls) {
    f.add(c.present);
    if (!c.present) continue;
    const sim::LaunchCounters& d = c.const_delta;
    for (std::int64_t v :
         {d.gld_transactions, d.gst_transactions, d.smem_load_ops,
          d.smem_store_ops, d.smem_bank_conflicts, d.tex_transactions,
          d.tex_misses, d.special_ops, d.fma_ops, d.barriers,
          d.payload_bytes})
      f.add(v);
    f.add(static_cast<std::int64_t>(c.gops.size()));
    for (const SpecGlobalOp& op : c.gops) {
      f.add(op.is_load);
      f.add(op.is_run);
      f.add(op.rel0);
      f.add(op.nlanes);
      f.add(op.delta_off);
      f.add(op.delta_len);
    }
    f.add_all(c.byte_deltas);
    f.add_all(c.tex_lines);
    f.add_all(c.copy_dst);
    f.add_all(c.copy_src);
    f.add(static_cast<std::int64_t>(c.run_copies.size()));
    for (const SpecRunCopy& r : c.run_copies) {
      f.add(r.dst0);
      f.add(r.src0);
      f.add(r.n);
    }
    f.add(c.use_run_copies);
    f.add(c.affine);
    f.add_all(c.gld_phase);
    f.add_all(c.gst_phase);
    for (std::int64_t v : {c.min_src, c.max_src, c.min_dst, c.max_dst})
      f.add(v);
  }
  return f.h;
}

struct Fingerprint {
  std::string key;  ///< "<extent> <perm>"
  SpecTier tier = SpecTier::kGeneric;
  std::uint64_t hash = 0;
};

/// Compile every permutation of extent^6 with the planner's selection
/// and synthetic 256-byte-aligned texture bases (the program is a pure
/// function of its inputs, so fixed bases make the hash reproducible).
std::vector<Fingerprint> compile_all() {
  std::vector<Fingerprint> out;
  sim::Device dev;
  PlanOptions opts;
  opts.specialize = false;  // the selection is all this needs
  for (const Index extent : {Index{16}, Index{15}}) {
    const Shape shape(Extents(6, extent));
    std::vector<Index> p(6);
    std::iota(p.begin(), p.end(), 0);
    do {
      const Permutation perm(p);
      const Plan plan = make_plan(dev, shape, perm, opts);
      SpecBuildInput in;
      in.problem = &plan.problem();
      in.sel = &plan.selection();
      in.props = &dev.props();
      in.tex_base[0] = std::int64_t{1} << 32;
      in.tex_base[1] = std::int64_t{2} << 32;
      in.tex_base[2] = std::int64_t{3} << 32;
      const auto prog = build_spec_program(in);
      Fingerprint fp;
      fp.key = std::to_string(extent) + " ";
      for (std::size_t i = 0; i < p.size(); ++i) {
        if (i > 0) fp.key += ',';
        fp.key += std::to_string(p[i]);
      }
      fp.tier = prog ? prog->tier : SpecTier::kGeneric;
      fp.hash = program_hash(prog.get());
      out.push_back(std::move(fp));
    } while (std::next_permutation(p.begin(), p.end()));
  }
  return out;
}

std::map<SpecTier, int> tier_counts(const std::vector<Fingerprint>& fps) {
  std::map<SpecTier, int> n;
  for (const Fingerprint& f : fps) ++n[f.tier];
  return n;
}

std::string tier_line(const std::map<SpecTier, int>& n) {
  std::ostringstream os;
  os << "# tiers";
  for (const auto& [tier, count] : n) os << " " << to_string(tier) << "=" << count;
  return os.str();
}

TEST(SpecFingerprint, CompiledProgramsMatchRecordedFingerprints) {
  std::ifstream f(kDataFile);
  ASSERT_TRUE(f) << "missing " << kDataFile;
  std::string want_tiers;
  std::map<std::string, std::pair<int, std::string>> want;
  for (std::string line; std::getline(f, line);) {
    if (line.rfind("# tiers", 0) == 0) want_tiers = line;
    if (line.empty() || line[0] == '#') continue;
    // "<extent> <comma-separated perm> <tier> <hash>".
    std::istringstream ls(line);
    std::string ext, perm, hash;
    int tier = -1;
    ls >> ext >> perm >> tier >> hash;
    want[ext + " " + perm] = {tier, hash};
  }
  const auto got = compile_all();
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(tier_line(tier_counts(got)), want_tiers);
  int mismatches = 0;
  for (const Fingerprint& fp : got) {
    const auto it = want.find(fp.key);
    ASSERT_NE(it, want.end()) << fp.key;
    std::ostringstream hex;
    hex << std::hex << fp.hash;
    if (it->second.first != static_cast<int>(fp.tier) ||
        it->second.second != hex.str()) {
      if (++mismatches <= 10)
        ADD_FAILURE() << fp.key << ": tier " << to_string(fp.tier) << " hash "
                      << hex.str() << ", recorded tier " << it->second.first
                      << " hash " << it->second.second;
    }
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(SpecFingerprint, DISABLED_RegenerateFingerprintFile) {
  const auto fps = compile_all();
  std::ofstream f(kDataFile);
  ASSERT_TRUE(f);
  f << "# build_spec_program fingerprints: every permutation of 16^6 and\n"
       "# 15^6, 8-byte elements. Line format: <extent> <perm> <tier int> "
       "<hash>.\n"
       "# Regenerate with test_spec_fingerprint "
       "--gtest_also_run_disabled_tests --gtest_filter='*Regenerate*'.\n";
  f << tier_line(tier_counts(fps)) << "\n";
  for (const Fingerprint& fp : fps)
    f << fp.key << " " << static_cast<int>(fp.tier) << " " << std::hex
      << fp.hash << std::dec << "\n";
}

}  // namespace
}  // namespace ttlg
