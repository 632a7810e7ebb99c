// Deterministic, seedable fault injection for the simulated device —
// the proving ground for the library's degradation ladder. Faults are
// raised at four sites:
//
//   alloc   device-buffer allocation failure (simulated OOM) —
//           raised as kResourceExhausted, like the real condition
//   launch  kernel launch failure (before any block runs) —
//           raised as kFaultInjected
//   tex     texture-cache fault; only fires for kernels that bind
//           texture offset arrays (OD/OA) — raised as kFaultInjected
//   smem    shared-memory over-allocation at launch validation; only
//           fires for kernels requesting shared memory — raised as
//           kResourceExhausted
//
// Triggers per site: `p` (independent probability per query, from the
// injector's own seeded RNG), `nth` (fail exactly the nth query,
// 1-based, once) and `every` (fail every kth query). Configured from
// the TTLG_FAULTS environment variable on first use, or
// programmatically (PlanOptions::faults installs a ScopedFaults for
// the duration of make_plan). Spec grammar:
//
//   spec  := entry (',' entry)*
//   entry := 'seed=' u64 | site '.' trigger '=' value
//   site  := 'alloc' | 'launch' | 'tex' | 'smem'
//   trigger := 'p' (float in [0,1]) | 'nth' (>=1) | 'every' (>=1)
//
// e.g. TTLG_FAULTS="seed=7,alloc.p=0.25,launch.nth=3". Every injected
// fault is counted locally and, at counters telemetry level, under
// robustness.fault.injected.<site>.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace ttlg::sim {

enum class FaultSite : int {
  kAlloc = 0,
  kLaunch = 1,
  kTexCache = 2,
  kSmem = 3,
};
inline constexpr int kNumFaultSites = 4;

const char* to_string(FaultSite site);

struct FaultSpec {
  struct SiteTrigger {
    double p = 0.0;          ///< failure probability per query
    std::int64_t nth = 0;    ///< fail the nth query (1-based); 0 = off
    std::int64_t every = 0;  ///< fail every kth query; 0 = off
    bool armed() const { return p > 0.0 || nth > 0 || every > 0; }
  };

  std::uint64_t seed = 0;
  std::array<SiteTrigger, kNumFaultSites> sites;

  SiteTrigger& site(FaultSite s) {
    return sites[static_cast<std::size_t>(s)];
  }
  const SiteTrigger& site(FaultSite s) const {
    return sites[static_cast<std::size_t>(s)];
  }
  bool any() const {
    for (const auto& t : sites)
      if (t.armed()) return true;
    return false;
  }

  /// Parse the TTLG_FAULTS grammar above; raises kInvalidArgument on
  /// malformed input. The empty string parses to a disarmed spec.
  static FaultSpec parse(const std::string& text);
  std::string to_string() const;
};

/// Process-global injector, mirroring the telemetry-level pattern: the
/// disarmed fast path is one relaxed atomic load, so production code
/// pays nothing when no faults are configured.
class FaultInjector {
 public:
  static FaultInjector& global();

  /// Install a spec; resets the RNG (to spec.seed) and all counters so
  /// a given spec yields the same fault sequence every run.
  void configure(const FaultSpec& spec);
  void configure(const std::string& spec_text) {
    configure(FaultSpec::parse(spec_text));
  }

  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  /// Should the current query of `site` fail? Deterministic in the
  /// sequence of calls since configure(). Counts injected faults.
  bool fire(FaultSite site);

  FaultSpec spec() const;
  std::int64_t queries(FaultSite site) const;
  std::int64_t injected(FaultSite site) const;
  std::int64_t total_injected() const;

 private:
  FaultInjector();  // reads TTLG_FAULTS

  mutable std::mutex mu_;
  FaultSpec spec_;
  Rng rng_{0};
  std::array<std::int64_t, kNumFaultSites> queries_{};
  std::array<std::int64_t, kNumFaultSites> injected_{};
  std::atomic<bool> armed_{false};
};

/// RAII fault-spec override: installs `spec` on construction and
/// restores the previously installed spec (counters reset) on
/// destruction. Used by PlanOptions::faults, the fuzz harness and
/// tests.
class ScopedFaults {
 public:
  explicit ScopedFaults(const FaultSpec& spec)
      : prev_(FaultInjector::global().spec()) {
    FaultInjector::global().configure(spec);
  }
  explicit ScopedFaults(const std::string& spec_text)
      : ScopedFaults(FaultSpec::parse(spec_text)) {}
  ~ScopedFaults() { FaultInjector::global().configure(prev_); }
  ScopedFaults(const ScopedFaults&) = delete;
  ScopedFaults& operator=(const ScopedFaults&) = delete;

 private:
  FaultSpec prev_;
};

}  // namespace ttlg::sim
