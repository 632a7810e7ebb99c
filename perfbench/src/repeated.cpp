// repeated-large: about twenty large problems, planned once in set-up and
// then executed functionally many times. Covers every schema and every
// specialization tier, ranks 2-7, prime extents and element widths 4 and
// 8, with arrays of 32-128 MiB. Execution in the simulator is the whole
// timed cost; the planner shows only in set-up.
#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>

#include "common/rng.hpp"
#include "layers.hpp"

namespace perfbench {
namespace {

constexpr int kSetups = 7;
constexpr int kMinCalls = 4;
constexpr double kTracedSeconds = 10;

/// One problem of the workload. The list was chosen so that the planner
/// puts the problems on every schema and every specialization tier; a
/// later planner may move them, so coverage gaps are reported in the
/// configuration, not failed.
struct Family {
  ttlg::Extents extents;
  std::vector<ttlg::Index> perm;
  int elem_size;
};

using S = ttlg::Schema;
using T = ttlg::SpecTier;

const std::vector<Family>& families() {
  static const std::vector<Family> f = {
      {{4096, 2048}, {0, 1}, 8},
      {{64, 48, 40, 160}, {0, 1, 2, 3}, 4},
      {{4096, 64, 32}, {0, 2, 1}, 8},
      {{229, 2503, 31}, {0, 2, 1}, 4},
      {{17, 3001, 211}, {0, 2, 1}, 8},
      {{26, 622, 49, 28}, {0, 3, 2, 1}, 4},
      {{6, 40, 11, 8, 9, 7, 8}, {0, 5, 3, 1, 6, 4, 2}, 8},
      {{2053, 4099}, {1, 0}, 4},
      {{2048, 4096}, {1, 0}, 8},
      {{257, 263, 251}, {2, 1, 0}, 4},
      {{509, 7, 63, 6, 7}, {2, 1, 4, 3, 0}, 8},
      {{16, 16, 16, 16, 16, 16}, {3, 5, 1, 0, 4, 2}, 8},
      {{15, 12, 15, 18, 10, 6, 10}, {6, 2, 4, 3, 0, 1, 5}, 4},
      {{8, 225, 9, 10, 75}, {1, 0, 3, 4, 2}, 4},
      {{27, 31, 3, 8, 25, 19, 3}, {2, 3, 1, 5, 0, 4, 6}, 4},
      {{32, 20, 2, 76, 3, 20, 4}, {6, 0, 5, 4, 2, 1, 3}, 4},
      {{24, 25, 4, 11, 14, 13, 3}, {2, 1, 5, 3, 0, 4, 6}, 8},
      {{387, 13, 19, 120}, {1, 0, 3, 2}, 4},
      {{13, 171, 125, 3, 25}, {3, 0, 2, 4, 1}, 4},
      {{7, 17, 2, 12, 19, 24, 6}, {1, 4, 3, 5, 2, 0, 6}, 8},
  };
  return f;
}

/// The workload's problems. Shapes are fixed so that seeds change the
/// data and the execution order, not the mix.
std::vector<Case> all_cases() {
  std::vector<Case> out;
  for (const Family& f : families())
    out.push_back({ttlg::Shape(f.extents), ttlg::Permutation(f.perm), f.elem_size});
  return out;
}

/// Device plus one plan per case. Plans are declared after the device so
/// they are destroyed first.
struct Planned {
  std::unique_ptr<ttlg::sim::Device> dev;
  std::vector<ttlg::Plan> plans;
  std::vector<double> plan_ns;
  std::vector<PartTimes> parts;
};

Planned plan_all(const std::vector<Case>& cases, int threads,
                 SpanRecorder& rec) {
  Planned p;
  p.dev = std::make_unique<ttlg::sim::Device>();
  p.dev->set_num_threads(threads);
  for (const Case& c : cases) {
    const std::int64_t t0 = now_ns();
    if (rec.enabled()) {
      PartTimes parts;
      p.plans.push_back(plan_by_parts(*p.dev, c, rec, -1, &parts));
      p.parts.push_back(parts);
    } else {
      ttlg::PlanOptions opts;
      opts.elem_size = c.elem_size;
      p.plans.push_back(ttlg::make_plan(*p.dev, c.shape, c.perm, opts));
    }
    p.plan_ns.push_back(static_cast<double>(now_ns() - t0));
  }
  return p;
}

struct CallLog {
  std::vector<double> wall_ns, payload;  ///< every timed call
  std::vector<double> first_ns;          ///< per case: its first call
  /// Per tier, per case: ns/element of the case's median repeat call.
  std::vector<double> per_tier_ns_per_elem[4];
  /// Traced run: per-case mean wall of traced and of untraced calls.
  std::vector<double> traced_mean_ns, untraced_mean_ns;
};

/// Allocates the case's buffers, runs the first call and checks it
/// against the host oracle, then repeats until `budget_s` of timed calls
/// (at least kMinCalls in all). Every call must match the first on the
/// simulated clock.
template <class E>
ttlg::sim::LaunchResult exercise(ttlg::sim::Device& dev, const ttlg::Plan& plan,
                                 const Case& c, std::uint64_t seed,
                                 double budget_s, bool traced,
                                 SpanRecorder& rec, Report& rep, CallLog& log) {
  const ttlg::Index n = c.volume();
  auto in = dev.alloc<E>(n);
  auto out = dev.alloc<E>(n);
  fill_input(in.data(), n, seed);
  const int tier = static_cast<int>(plan.specialization_tier());

  std::int64_t t0 = now_ns();
  const ttlg::sim::LaunchResult first = plan.execute<E>(in, out);
  double ns = static_cast<double>(now_ns() - t0);
  log.first_ns.push_back(ns);
  log.wall_ns.push_back(ns);
  log.payload.push_back(c.payload_bytes());
  rep.attempt(matches_host(in.data(), out.data(), c),
              "first output differs from host oracle: " + c.label());

  double spent = ns * 1e-9;
  std::vector<double> repeat_ns, traced_ns, untraced_ns;
  for (int calls = 1; calls < kMinCalls || spent < budget_s; ++calls) {
    // In the traced run, alternate untraced and traced calls so both see
    // the same conditions.
    const bool with_span = traced && calls % 2 == 0;
    ttlg::sim::LaunchResult r;
    t0 = now_ns();
    if (with_span) {
      Scope s(rec, "plan.execute");
      r = plan.execute<E>(in, out);
    } else {
      r = plan.execute<E>(in, out);
    }
    ns = static_cast<double>(now_ns() - t0);
    spent += ns * 1e-9;
    rep.attempt(same_sim(first, r), "sim result changed between calls: " + c.label());
    log.wall_ns.push_back(ns);
    log.payload.push_back(c.payload_bytes());
    repeat_ns.push_back(ns);
    (with_span ? traced_ns : untraced_ns).push_back(ns);
  }
  log.per_tier_ns_per_elem[tier].push_back(median(repeat_ns) /
                                          static_cast<double>(n));
  if (!traced_ns.empty()) {
    log.traced_mean_ns.push_back(mean(traced_ns));
    log.untraced_mean_ns.push_back(mean(untraced_ns));
  }
  dev.free(in);
  dev.free(out);
  return first;
}

}  // namespace

void run_repeated(const Options& opt, Report& rep, SpanRecorder& rec) {
  const std::vector<Case> cases = all_cases();
  // Set-up plans the cases in their fixed order; the seed orders execution.
  std::vector<std::size_t> order(cases.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  ttlg::Rng rng(opt.seed ^ 0x5eed5eedull);
  for (std::size_t i = order.size() - 1; i > 0; --i)
    std::swap(order[i], order[rng.uniform(0, i)]);
  const int threads = kDeviceThreads;
  double total_mib = 0, max_mib = 0;
  for (const Case& c : cases) {
    const double m = c.payload_bytes() / 2 / (1024.0 * 1024.0);
    total_mib += m;
    max_mib = std::max(max_mib, m);
  }
  rep.config("repeated.cases", std::to_string(cases.size()));
  rep.config("repeated.device_threads", std::to_string(threads));
  rep.config("repeated.array_mib_max", std::to_string(max_mib));
  rep.config("repeated.array_mib_total", std::to_string(total_mib));

  // Set-up: a device and one plan per case, several times. Each case's
  // make_plan time is its fastest over the set-ups, which drops
  // interference from the rest of the host.
  Planned planned;
  std::vector<double> setup_s, case_plan_ns(cases.size(), 0);
  const int setups = opt.trace ? 1 : kSetups;
  for (int i = 0; i < setups; ++i) {
    const std::int64_t t0 = now_ns();
    planned.plans.clear();  // plans release into their device: drop them first
    planned = plan_all(cases, threads, rec);
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    for (std::size_t k = 0; k < cases.size(); ++k)
      case_plan_ns[k] = i == 0 ? planned.plan_ns[k]
                               : std::min(case_plan_ns[k], planned.plan_ns[k]);
  }

  // Coverage: every schema and every tier must be present.
  bool schema_seen[5] = {}, tier_seen[4] = {};
  for (const ttlg::Plan& p : planned.plans) {
    schema_seen[static_cast<int>(p.schema())] = true;
    tier_seen[static_cast<int>(p.specialization_tier())] = true;
  }
  for (int s = 0; s < 5; ++s)
    if (!schema_seen[s])
      rep.config("repeated.missing_schema", ttlg::to_string(static_cast<S>(s)));
  for (int t = 0; t < 4; ++t)
    if (!tier_seen[t])
      rep.config("repeated.missing_tier", ttlg::to_string(static_cast<T>(t)));

  // Timed execution: equal wall budget per case.
  // The traced run covers every workload in one process, so it caps this
  // workload's share.
  const double seconds = opt.trace ? std::min(opt.seconds, kTracedSeconds) : opt.seconds;
  const double budget = seconds / static_cast<double>(cases.size());
  CallLog log;
  std::vector<std::optional<ttlg::sim::LaunchResult>> firsts(cases.size());
  for (const std::size_t k : order) {
    const Case& c = cases[k];
    const ttlg::Plan& plan = planned.plans[k];
    try {
      firsts[k] = c.elem_size == 4
                      ? exercise<float>(*planned.dev, plan, c, opt.seed, budget,
                                        opt.trace, rec, rep, log)
                      : exercise<double>(*planned.dev, plan, c, opt.seed, budget,
                                         opt.trace, rec, rep, log);
    } catch (const std::exception& e) {
      rep.attempt(false, c.label() + ": " + e.what());
    }
  }

  // Simulated-clock results, aggregated in canonical case order so that
  // they do not depend on the seed's visiting order.
  SimTotals sim;
  TierCounts tiers;
  std::vector<double> bw_sim, bw_single, rel_err;
  for (std::size_t k = 0; k < cases.size(); ++k) {
    if (!firsts[k]) continue;
    const Case& c = cases[k];
    const ttlg::Plan& plan = planned.plans[k];
    const ttlg::sim::LaunchResult& first = *firsts[k];
    sim.add(first);
    tiers.add(plan.specialization_tier());
    bw_sim.push_back(gbps(c.payload_bytes(), first.time_s));
    bw_single.push_back(
        gbps(c.payload_bytes(), case_plan_ns[k] * 1e-9 + first.time_s));
    rel_err.push_back(std::abs(plan.predicted_time_s() - first.time_s) /
                      first.time_s);
  }

  if (!opt.trace) {
    rep.metric("setup_s", median(setup_s), "s", "wall");
    rep.metric("bw_single_gbps", mean(bw_single), "GB/s", "wall+sim");
    rep.metric("bw_repeated_sim_gbps", mean(bw_sim), "GB/s", "sim");
    rep.metric("exec_wall_gbps", gbps(sum(log.payload), sum(log.wall_ns) * 1e-9),
               "GB/s", "wall");
    tiers.emit(rep, "repeated");
    return;
  }

  // ---- traced run ----------------------------------------------------------
  for (int t = 0; t < 4; ++t)
    rep.metric(std::string("exec.wall_ns_per_elem_p50.") +
                   ttlg::to_string(static_cast<T>(t)),
               quantile(log.per_tier_ns_per_elem[t], 0.5), "ns/elem", "wall");
  rep.metric("exec.first_call_wall_ms_p50", quantile(log.first_ns, 0.5) * 1e-6,
             "ms", "wall");
  std::vector<double> compile;
  for (const PartTimes& p : planned.parts) compile.push_back(p.compile_ns);
  rep.metric("spec.compile_wall_ms_p50.repeated", quantile(compile, 0.5) * 1e-6,
             "ms", "wall");
  rep.metric("planner.model_rel_err_p50.repeated", quantile(rel_err, 0.5),
             "ratio", "sim");
  tiers.emit(rep, "repeated");
  sim.emit(rep, "repeated");
  rep.metric("trace.overhead_frac.repeated-large",
             sum(log.traced_mean_ns) / sum(log.untraced_mean_ns) - 1.0, "ratio",
             "wall");
}

}  // namespace perfbench
