#include "core/measure_plan.hpp"

#include <utility>
#include <vector>

#include "core/launch_helpers.hpp"
#include "gpusim/thread_pool.hpp"

namespace ttlg {
namespace {

/// A candidate configuration to measure, as a lightweight descriptor:
/// the (potentially large) offset arrays are materialized inside the
/// measurement task so that config construction parallelizes along
/// with the simulated execution.
struct Candidate {
  Schema schema = Schema::kCopy;
  OdSlice od_slice;
  OaSlice oa_slice;
  Index fvi_b = 0;
};

/// Measure one candidate on a worker-local device clone: same
/// properties as the caller's device, count-only mode, the caller's
/// sampling (or the measure-mode default of 4). Virtual (storage-free)
/// buffers keep clones cheap at any tensor size. Returns the fully
/// built selection and its simulated kernel time.
///
/// Counter totals — and therefore measured times — do not depend on
/// which device executes: allocations are 256-byte aligned, and every
/// address-sensitive model granularity (128-byte DRAM transactions,
/// texture lines) divides 256, so coalescing and cache behaviour are
/// invariant under the base-address shift between caller and clone.
std::pair<KernelSelection, double> measure_candidate(
    const sim::DeviceProperties& props, int sampling,
    const TransposeProblem& problem, const PlanOptions& opts,
    const Candidate& cand) {
  sim::Device wdev(props);
  wdev.set_mode(sim::ExecMode::kCountOnly);
  wdev.set_sampling(sampling);
  auto in = wdev.alloc_virtual<double>(problem.volume());
  auto out = wdev.alloc_virtual<double>(problem.volume());

  KernelSelection sel;
  sel.schema = cand.schema;
  switch (cand.schema) {
    case Schema::kCopy:
    case Schema::kFviMatchLarge:
      sel.fvi_large = build_fvi_large_config(problem, opts.enable_coarsening);
      break;
    case Schema::kFviMatchSmall:
      sel.fvi_small =
          build_fvi_small_config(problem, cand.fvi_b, opts.enable_coarsening);
      break;
    case Schema::kOrthogonalDistinct:
      sel.od = build_od_config(problem, cand.od_slice);
      break;
    case Schema::kOrthogonalArbitrary:
      sel.oa = build_oa_config(problem, cand.oa_slice, opts.enable_coarsening);
      break;
  }
  OffsetArrays tex;
  tex.upload(wdev, sel);
  const std::pair<sim::DeviceBuffer<double>, sim::DeviceBuffer<double>>
      member{in, out};
  const double t =
      launch_generic<double>(wdev, sel, tex, {&member, 1}).front().time_s;
  return {std::move(sel), t};
}

}  // namespace

Plan make_plan_measured(sim::Device& dev, const Shape& shape,
                        const Permutation& perm, const PlanOptions& opts,
                        MeasuredPlanStats* stats) {
  auto problem = TransposeProblem::make(shape, perm, opts.elem_size);
  const Index max_smem = dev.props().shared_mem_per_block_bytes / 8;
  MeasuredPlanStats local;

  // Phase 1: enumerate the candidate space serially (cheap descriptors
  // only — the Alg. 3 slice enumerations, not the offset arrays).
  std::vector<Candidate> cands;
  const Schema schema = classify(problem);
  if (schema == Schema::kCopy || schema == Schema::kFviMatchLarge) {
    cands.push_back({schema, {}, {}, 0});
  } else {
    // FVI-Match-Small candidates (when applicable).
    if (problem.fused.perm.fvi_matches() && problem.fused.shape.rank() >= 3) {
      for (Index b : enumerate_fvi_small_blockings(problem, max_smem))
        cands.push_back({Schema::kFviMatchSmall, {}, {}, b});
    }
    // Orthogonal-Distinct candidates.
    if (!problem.fused.perm.fvi_matches()) {
      auto slices = enumerate_od_slices(
          problem,
          od_max_slice_vol(problem, dev.props(), opts.overbooking_factor));
      constexpr std::size_t kMaxExec = 64;  // measuring is expensive
      const std::size_t step =
          std::max<std::size_t>(1, slices.size() / kMaxExec);
      for (std::size_t i = 0; i < slices.size(); i += step)
        cands.push_back({Schema::kOrthogonalDistinct, slices[i], {}, 0});
    }
    // Orthogonal-Arbitrary candidates.
    {
      auto slices = enumerate_oa_slices(problem, max_smem);
      constexpr std::size_t kMaxExec = 32;
      const std::size_t step =
          std::max<std::size_t>(1, slices.size() / kMaxExec);
      for (std::size_t i = 0; i < slices.size(); i += step)
        cands.push_back({Schema::kOrthogonalArbitrary, {}, slices[i], 0});
    }
  }
  TTLG_ASSERT(!cands.empty(), "at least one candidate always exists");

  // Phase 2: measure candidates, each on an independent device clone.
  // Parallel when asked for — except under an armed fault injector,
  // where concurrent measurement would reorder the injector's query
  // sequence and break seeded-fault reproducibility.
  const int sampling = dev.sampling() == 0 ? 4 : dev.sampling();
  const int nthreads = sim::FaultInjector::global().armed()
                           ? 1
                           : sim::resolve_num_threads(opts.num_threads);
  std::vector<std::pair<KernelSelection, double>> measured(cands.size());
  sim::ThreadPool::global().run_indexed(
      static_cast<std::int64_t>(cands.size()), nthreads,
      [&](std::int64_t i) {
        measured[static_cast<std::size_t>(i)] = measure_candidate(
            dev.props(), sampling, problem, opts,
            cands[static_cast<std::size_t>(i)]);
      });

  // Phase 3: reduce in enumeration order — strict < keeps the FIRST of
  // equally fast candidates, so the chosen plan is bit-identical to a
  // serial (and to the historical single-threaded) search.
  KernelSelection best;
  double best_t = -1;
  for (auto& [sel, t] : measured) {
    ++local.candidates_executed;
    local.measure_device_s += t;
    if (best_t < 0 || t < best_t) {
      best_t = t;
      sel.predicted_s = t;
      best = std::move(sel);
    }
  }
  TTLG_ASSERT(best_t >= 0, "at least one candidate always exists");
  if (stats) *stats = local;
  Plan plan = Plan::from_selection(dev, std::move(problem), std::move(best));
  plan.finalize_specialization(opts.specialize &&
                               specialization_enabled_by_env());
  return plan;
}

}  // namespace ttlg
