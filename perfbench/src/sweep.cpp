// single-use-sweep: every permutation of a 6D tensor at extents 16 and 15
// (the paper's Figs. 6-9). Each problem is planned and executed once,
// count-only, serially on one device thread: host planning dominates and
// the simulator's work is small.
#include <algorithm>
#include <memory>
#include <numeric>

#include "baselines/backend.hpp"
#include "common/rng.hpp"
#include "layers.hpp"

namespace perfbench {
namespace {

constexpr ttlg::Index kRank = 6;
constexpr ttlg::Index kExtents[] = {16, 15};
constexpr ttlg::Index kCheckExtent = 5;  // functional oracle pass
constexpr int kSampling = 6;
constexpr int kSetups = 3;
constexpr std::size_t kWarmCases = 24;
constexpr double kPassSeconds = 10;  ///< one pass per this much of --seconds

std::vector<ttlg::Permutation> all_perms() {
  std::vector<ttlg::Index> p(kRank);
  std::iota(p.begin(), p.end(), ttlg::Index{0});
  std::vector<ttlg::Permutation> out;
  do {
    out.emplace_back(p);
  } while (std::next_permutation(p.begin(), p.end()));
  return out;
}

/// Canonical case list (extent-major, lexicographic permutations).
std::vector<Case> sweep_cases() {
  std::vector<Case> out;
  for (const ttlg::Index ext : kExtents)
    for (const auto& p : all_perms())
      out.push_back({ttlg::Shape(ttlg::Extents(kRank, ext)), p, 8});
  return out;
}

/// The order a run visits the cases in, drawn from the seed.
std::vector<std::size_t> seeded_order(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  ttlg::Rng rng(seed);
  for (std::size_t i = n - 1; i > 0; --i)
    std::swap(order[i], order[rng.uniform(0, i)]);
  return order;
}

/// Count-only device with one virtual in/out buffer pair per extent.
struct SweepDevice {
  std::unique_ptr<ttlg::sim::Device> dev;
  std::vector<ttlg::sim::DeviceBuffer<double>> in, out;

  explicit SweepDevice(int threads)
      : dev(std::make_unique<ttlg::sim::Device>()) {
    dev->set_mode(ttlg::sim::ExecMode::kCountOnly);
    dev->set_sampling(kSampling);
    dev->set_num_threads(threads);
    for (const ttlg::Index ext : kExtents) {
      const ttlg::Index v = ttlg::Shape(ttlg::Extents(kRank, ext)).volume();
      in.push_back(dev->alloc_virtual<double>(v));
      out.push_back(dev->alloc_virtual<double>(v));
    }
  }
  std::size_t slot(const Case& c) const { return c.shape.extent(0) == kExtents[0] ? 0 : 1; }
};

struct CaseRun {
  double plan_ns = 0, exec_ns = 0;
  ttlg::sim::LaunchResult res;
  ttlg::SpecTier tier = ttlg::SpecTier::kGeneric;
  double predicted_s = 0;
  bool ok = false;
};

/// make_plan + one count-only execute, each timed on the wall clock.
CaseRun run_case(SweepDevice& sd, const Case& c) {
  CaseRun r;
  const std::size_t s = sd.slot(c);
  const std::int64_t t0 = now_ns();
  ttlg::PlanOptions opts;
  opts.elem_size = c.elem_size;
  ttlg::Plan plan = ttlg::make_plan(*sd.dev, c.shape, c.perm, opts);
  const std::int64_t t1 = now_ns();
  r.res = plan.execute<double>(sd.in[s], sd.out[s]);
  r.plan_ns = static_cast<double>(t1 - t0);
  r.exec_ns = static_cast<double>(now_ns() - t1);
  r.tier = plan.specialization_tier();
  r.predicted_s = plan.predicted_time_s();
  r.ok = true;
  return r;
}

/// Functional pass over every permutation at a small extent, checked
/// against the host oracle. Outside any timed region.
void oracle_pass(const Options& opt, Report& rep) {
  ttlg::sim::Device dev;
  dev.set_num_threads(kDeviceThreads);
  const ttlg::Shape shape(ttlg::Extents(kRank, kCheckExtent));
  const ttlg::Index v = shape.volume();
  std::vector<double> host(static_cast<std::size_t>(v));
  fill_input(host.data(), v, opt.seed);
  auto in = dev.alloc_copy<double>(host);
  auto out = dev.alloc<double>(v);
  for (const auto& p : all_perms()) {
    const Case c{shape, p, 8};
    bool ok = false;
    try {
      ttlg::Plan plan = ttlg::make_plan(dev, c.shape, c.perm);
      plan.execute<double>(in, out);
      ok = matches_host(host.data(), out.data(), c);
    } catch (const std::exception&) {
      ok = false;
    }
    rep.attempt(ok, "oracle " + c.label());
  }
}

}  // namespace

/// Per-case record of the accounting pass: make_plan next to its public
/// parts, so the parts can be checked to add up to the whole.
struct Accounting {
  std::vector<double> make_plan_ns, select_ns, upload_ns, compile_ns,
      count_only_ns, unaccounted_ns, candidates, bw_single;
  double wall_ns = 0;  ///< summed wall of every case handled
};

/// Plans one case twice, once with make_plan and once through its public
/// parts (`parts_first` picks the order, so neither always runs warm),
/// checks the two plans agree on the simulated clock, and executes the
/// parts-built plan count-only. With an enabled recorder every call is a
/// span.
void account_case(SweepDevice& sd, const Case& c, bool parts_first,
                  CaseRun* first, SpanRecorder& rec, Report& rep, Accounting& a) {
  const std::size_t slot = sd.slot(c);
  const std::int64_t start = now_ns();
  try {
    Scope cs(rec, "sweep.case");
    ttlg::PlanOptions opts;
    opts.elem_size = c.elem_size;
    ttlg::Plan whole, built;
    PartTimes parts;
    std::int64_t t0 = 0, t1 = 0;
    auto plan_whole = [&] {
      t0 = now_ns();
      whole = ttlg::make_plan(*sd.dev, c.shape, c.perm, opts);
      t1 = now_ns();
      rec.record("make_plan", t0, t1, cs.id);
    };
    if (!parts_first) plan_whole();
    built = plan_by_parts(*sd.dev, c, rec, cs.id, &parts);
    if (parts_first) plan_whole();
    ttlg::sim::LaunchResult res;
    const std::int64_t e0 = now_ns();
    {
      Scope es(rec, "plan.execute.count_only", cs.id);
      res = built.execute<double>(sd.in[slot], sd.out[slot]);
    }
    const std::int64_t e1 = now_ns();
    const ttlg::sim::LaunchResult ref = whole.execute<double>(sd.in[slot], sd.out[slot]);
    rep.check(same_sim(ref, res) &&
                  whole.specialization_tier() == built.specialization_tier(),
              "plan built from parts differs from make_plan: " + c.label());
    const double plan_ns = static_cast<double>(t1 - t0);
    a.make_plan_ns.push_back(plan_ns);
    a.select_ns.push_back(parts.select_ns);
    a.upload_ns.push_back(parts.upload_ns);
    a.compile_ns.push_back(parts.compile_ns);
    a.unaccounted_ns.push_back(plan_ns - parts.select_ns - parts.upload_ns -
                               parts.compile_ns);
    a.count_only_ns.push_back(static_cast<double>(e1 - e0));
    a.candidates.push_back(static_cast<double>(parts.candidates));
    a.bw_single.push_back(gbps(c.payload_bytes(), plan_ns * 1e-9 + ref.time_s));
    if (first) {
      first->res = ref;
      first->tier = whole.specialization_tier();
      first->predicted_s = whole.predicted_time_s();
      first->ok = true;
    }
  } catch (const std::exception& e) {
    rep.check(false, "accounting " + c.label() + ": " + e.what());
  }
  a.wall_ns += static_cast<double>(now_ns() - start);
}

void run_sweep(const Options& opt, Report& rep, SpanRecorder& rec) {
  const std::vector<Case> cases = sweep_cases();
  const std::vector<std::size_t> order = seeded_order(cases.size(), opt.seed);
  const int threads = kDeviceThreads;
  rep.config("sweep.cases", std::to_string(cases.size()));
  rep.config("sweep.device_threads", std::to_string(threads));
  rep.config("sweep.sampling", std::to_string(kSampling));
  rep.config("sweep.virtual_array_mib",
             std::to_string(cases.front().payload_bytes() / 2 / (1 << 20)));

  // Set-up: device, virtual buffers and a warm-up of a few cases so lazy
  // initialisation is not charged to the first timed problems.
  std::unique_ptr<SweepDevice> sd;
  std::vector<double> setup_s;
  for (int i = 0; i < (opt.trace ? 1 : kSetups); ++i) {
    const std::int64_t t0 = now_ns();
    sd = std::make_unique<SweepDevice>(threads);
    // The same cases whatever the seed, spread over both extents.
    for (std::size_t k = 0; k < kWarmCases; ++k)
      run_case(*sd, cases[k * cases.size() / kWarmCases]);
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  std::vector<CaseRun> first(cases.size());

  if (opt.trace) {
    // Every case is accounted twice back to back, untraced and traced (in
    // alternating order), so both see the same host conditions.
    SpanRecorder off(false);
    Accounting plain, a;
    for (std::size_t pos = 0; pos < order.size(); ++pos) {
      const std::size_t id = order[pos];
      const bool odd = pos % 2 == 1;
      if (odd) account_case(*sd, cases[id], odd, nullptr, rec, rep, a);
      account_case(*sd, cases[id], odd, &first[id], off, rep, plain);
      if (!odd) account_case(*sd, cases[id], odd, nullptr, rec, rep, a);
    }
    SimTotals sim;
    TierCounts tiers;
    std::vector<double> rel_err;
    for (const CaseRun& r : first) {
      if (!r.ok) continue;
      sim.add(r.res);
      tiers.add(r.tier);
      rel_err.push_back(std::abs(r.predicted_s - r.res.time_s) / r.res.time_s);
    }
    rep.metric("planner.select_wall_ms_p50", quantile(a.select_ns, 0.5) * 1e-6, "ms", "wall");
    rep.metric("planner.select_wall_ms_p99", quantile(a.select_ns, 0.99) * 1e-6, "ms", "wall");
    rep.metric("planner.candidates_mean", mean(a.candidates), "count", "count");
    rep.metric("planner.model_rel_err_p50.sweep", quantile(rel_err, 0.5), "ratio", "sim");
    rep.metric("plan.make_plan_wall_ms_p50", quantile(a.make_plan_ns, 0.5) * 1e-6, "ms",
               "wall");
    rep.metric("plan.make_plan_wall_ms_p99", quantile(a.make_plan_ns, 0.99) * 1e-6, "ms",
               "wall");
    rep.metric("plan.upload_wall_ms_p50", quantile(a.upload_ns, 0.5) * 1e-6, "ms", "wall");
    rep.metric("plan.unaccounted_wall_ms_p50", quantile(a.unaccounted_ns, 0.5) * 1e-6,
               "ms", "wall");
    rep.metric("spec.compile_wall_ms_p50", quantile(a.compile_ns, 0.5) * 1e-6, "ms", "wall");
    rep.metric("spec.compile_wall_ms_p99", quantile(a.compile_ns, 0.99) * 1e-6, "ms", "wall");
    rep.metric("exec.count_only_wall_us_p50", quantile(a.count_only_ns, 0.5) * 1e-3, "us",
               "wall");
    tiers.emit(rep, "sweep");
    sim.emit(rep, "sweep");
    rep.metric("trace.overhead_frac.single-use-sweep", a.wall_ns / plain.wall_ns - 1.0,
               "ratio", "wall");

    // Reference row: the cuTT-heuristic baseline's single-use bandwidth on
    // the same cases (its plan cost is the baseline's own model: host wall
    // plus a fixed charge per plan-time allocation).
    auto cutt =
        ttlg::baselines::make_cutt_backend(ttlg::baselines::CuttMode::kHeuristic);
    std::vector<double> cutt_bw;
    for (const std::size_t id : order) {
      const Case& c = cases[id];
      const std::size_t s = sd->slot(c);
      const auto r = cutt->run(*sd->dev, sd->in[s], sd->out[s], c.shape, c.perm);
      cutt_bw.push_back(gbps(c.payload_bytes(), r.plan_s + r.kernel_s));
    }
    rep.metric("ref.cutt_heuristic.bw_single_gbps", mean(cutt_bw), "GB/s", "wall+sim");
    rep.metric("ref.ttlg.bw_single_gbps", mean(plain.bw_single), "GB/s", "wall+sim");
    return;
  }

  // Timed passes: every case once per pass. The pass count depends on
  // --seconds only, so every run on any host measures the same work.
  const int passes = std::max(1, static_cast<int>(opt.seconds / kPassSeconds));
  std::vector<double> exec_ns, payload, bw_single;
  for (int pass = 0; pass < passes; ++pass) {
    for (const std::size_t id : order) {
      const Case& c = cases[id];
      CaseRun r;
      try {
        r = run_case(*sd, c);
      } catch (const std::exception& e) {
        rep.attempt(false, c.label() + ": " + e.what());
        continue;
      }
      if (pass == 0) {
        first[id] = r;
      } else {
        rep.check(same_sim(first[id].res, r.res),
                  "sim result changed between passes: " + c.label());
      }
      rep.attempt(true);
      exec_ns.push_back(r.exec_ns);
      payload.push_back(c.payload_bytes());
      bw_single.push_back(gbps(c.payload_bytes(), r.plan_ns * 1e-9 + r.res.time_s));
    }
  }
  rep.config("sweep.passes", std::to_string(passes));

  // Simulated-clock results, aggregated in canonical case order.
  std::vector<double> bw_sim;
  TierCounts tiers;
  for (std::size_t id = 0; id < cases.size(); ++id) {
    if (!first[id].ok) continue;
    bw_sim.push_back(gbps(cases[id].payload_bytes(), first[id].res.time_s));
    tiers.add(first[id].tier);
  }

  rep.metric("setup_s", median(setup_s), "s", "wall");
  rep.metric("bw_single_gbps", mean(bw_single), "GB/s", "wall+sim");
  rep.metric("bw_repeated_sim_gbps", mean(bw_sim), "GB/s", "sim");
  rep.metric("exec_wall_gbps", gbps(sum(payload), sum(exec_ns) * 1e-9), "GB/s", "wall");
  tiers.emit(rep, "sweep");
  oracle_pass(opt, rep);
}

}  // namespace perfbench
