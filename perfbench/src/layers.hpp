// Helpers that touch the library: problem descriptions, simulated-clock
// totals, specialization-tier tallies and the host-oracle check.
#pragma once

#include <cstring>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/ttlg.hpp"
#include "core/stride_program.hpp"

namespace perfbench {

struct Case {
  ttlg::Shape shape;
  ttlg::Permutation perm;
  int elem_size = 8;

  ttlg::Index volume() const { return shape.volume(); }
  /// Bytes a transposition moves: one read and one write per element.
  double payload_bytes() const {
    return 2.0 * static_cast<double>(volume()) * elem_size;
  }
  std::string label() const {
    return shape.to_string() + perm.to_string() + "x" +
           std::to_string(elem_size);
  }
};

/// payload / seconds, in GB/s.
inline double gbps(double payload_bytes, double seconds) {
  return seconds > 0 ? payload_bytes / seconds * 1e-9 : 0;
}

/// Simulated-clock totals over a set of launches (one per distinct
/// problem): the TimingBreakdown pipes and the raw event counters.
struct SimTotals {
  double dram_s = 0, smem_s = 0, alu_s = 0, tex_s = 0, overhead_s = 0;
  std::int64_t gld = 0, gst = 0, conflicts = 0, tex_misses = 0, special = 0;
  std::int64_t payload = 0;

  void add(const ttlg::sim::LaunchResult& r) {
    dram_s += r.timing.dram_s;
    smem_s += r.timing.smem_s;
    alu_s += r.timing.alu_s;
    tex_s += r.timing.tex_s;
    overhead_s += r.timing.overhead_s;
    gld += r.counters.gld_transactions;
    gst += r.counters.gst_transactions;
    conflicts += r.counters.smem_bank_conflicts;
    tex_misses += r.counters.tex_misses;
    special += r.counters.special_ops;
    payload += r.counters.payload_bytes;
  }

  void emit(Report& rep, const std::string& wl) const {
    rep.metric("sim.dram_ms." + wl, dram_s * 1e3, "sim_ms", "sim");
    rep.metric("sim.smem_ms." + wl, smem_s * 1e3, "sim_ms", "sim");
    rep.metric("sim.alu_ms." + wl, alu_s * 1e3, "sim_ms", "sim");
    rep.metric("sim.tex_ms." + wl, tex_s * 1e3, "sim_ms", "sim");
    rep.metric("sim.overhead_ms." + wl, overhead_s * 1e3, "sim_ms", "sim");
    rep.metric("sim.gld_txn." + wl, static_cast<double>(gld), "count", "sim");
    rep.metric("sim.gst_txn." + wl, static_cast<double>(gst), "count", "sim");
    rep.metric("sim.smem_bank_conflicts." + wl, static_cast<double>(conflicts),
               "count", "sim");
    rep.metric("sim.tex_misses." + wl, static_cast<double>(tex_misses),
               "count", "sim");
    rep.metric("sim.special_ops." + wl, static_cast<double>(special), "count",
               "sim");
    const double txn_bytes = 128.0 * static_cast<double>(gld + gst);
    rep.metric("sim.coalescing_eff." + wl,
               txn_bytes > 0 ? static_cast<double>(payload) / txn_bytes : 1.0,
               "ratio", "sim");
  }
};

/// How many plans landed on each specialization tier.
struct TierCounts {
  int n[4] = {0, 0, 0, 0};

  void add(ttlg::SpecTier t) { ++n[static_cast<int>(t)]; }

  void emit(Report& rep, const std::string& wl) const {
    for (int t = 0; t < 4; ++t) {
      const std::string name = std::string("spec.tier.") +
                               ttlg::to_string(static_cast<ttlg::SpecTier>(t)) +
                               "." + wl;
      rep.metric(name, n[t], "count", "sim");
    }
  }
};

/// Deterministic input data for a seed. Values are exact in float and
/// repeat only every 16777213 elements, so a misplaced element shows
/// unless it moved by a multiple of that.
template <class T>
void fill_input(T* data, ttlg::Index n, std::uint64_t seed) {
  const auto salt = static_cast<ttlg::Index>(seed % 4099);
  for (ttlg::Index k = 0; k < n; ++k)
    data[k] = static_cast<T>((k + salt) % 16777213);
}

/// True when `out` equals the host oracle's transposition of `in`.
template <class T>
bool matches_host(const T* in, const T* out, const Case& c) {
  const auto n = static_cast<std::size_t>(c.volume());
  std::vector<T> ref(n);
  ttlg::host_transpose(std::span<const T>(in, n), std::span<T>(ref), c.shape,
                       c.perm);
  return std::memcmp(ref.data(), out, n * sizeof(T)) == 0;
}

/// Bit-for-bit equality of two launches on the simulated clock.
inline bool same_sim(const ttlg::sim::LaunchResult& a,
                     const ttlg::sim::LaunchResult& b) {
  return a.time_s == b.time_s &&
         a.counters.gld_transactions == b.counters.gld_transactions &&
         a.counters.gst_transactions == b.counters.gst_transactions &&
         a.counters.smem_bank_conflicts == b.counters.smem_bank_conflicts &&
         a.counters.tex_misses == b.counters.tex_misses &&
         a.counters.special_ops == b.counters.special_ops &&
         a.counters.payload_bytes == b.counters.payload_bytes;
}

/// The public parts make_plan runs, called one by one so a traced run can
/// time each: problem normalisation, model + kernel selection, offset
/// upload, stride-program compile.
struct PartTimes {
  double select_ns = 0, upload_ns = 0, compile_ns = 0;
  ttlg::Index candidates = 0;
};
ttlg::Plan plan_by_parts(ttlg::sim::Device& dev, const Case& c,
                         SpanRecorder& rec, int parent, PartTimes* parts);

}  // namespace perfbench
