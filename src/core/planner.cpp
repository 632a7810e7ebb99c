#include "core/planner.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "core/kernels.hpp"
#include "gpusim/lane.hpp"
#include "telemetry/event.hpp"

namespace ttlg {
namespace {

constexpr Index kWS = sim::kWarpSize;

/// A slice search's best predicted time in microseconds, if any.
template <class Best>
std::optional<double> best_us(const Best& best) {
  if (!best) return std::nullopt;
  return best->second * 1e6;
}

bool fvi_small_conditions_hold(const TransposeProblem& p) {
  const Shape& fs = p.fused.shape;
  const Permutation& fp = p.fused.perm;
  if (fs.rank() < 3) return false;
  const Index n0 = fs.extent(0);
  // Alg. 1 line 13: dim(i0)*dim(i1) >= WS and the same on the output side.
  return n0 * fs.extent(1) >= kWS && n0 * fs.extent(fp[1]) >= kWS;
}

}  // namespace

Schema classify(const TransposeProblem& problem) {
  const Shape& fs = problem.fused.shape;
  const Permutation& fp = problem.fused.perm;
  telemetry::Stage stage(telemetry::Site::kClassify);

  Schema schema;
  const char* path;
  if (fs.rank() == 1) {  // fused to a pure copy
    schema = Schema::kCopy;
    path = "fused rank 1 -> Copy";
  } else if (fvi_prefixes_disjoint(fs, fp, kWS)) {
    schema = Schema::kOrthogonalDistinct;
    path = "WS-prefixes disjoint -> Orthogonal-Distinct (Alg. 2)";
  } else if (fp.fvi_matches()) {
    if (fs.extent(0) >= kWS) {
      schema = Schema::kFviMatchLarge;
      path = "FVI matches, extent(0) >= WS -> FVI-Match-Large (Alg. 7)";
    } else if (fvi_small_conditions_hold(problem)) {
      schema = Schema::kFviMatchSmall;
      path = "FVI matches, Alg. 1 line 13 holds -> FVI-Match-Small (Alg. 6)";
    } else {
      // Resolved by model vs Alg. 6 in select_kernel.
      schema = Schema::kOrthogonalArbitrary;
      path = "FVI matches, two-dim products < WS -> model resolves "
             "OA (Alg. 5) vs FVI-Match-Small (Alg. 6)";
    }
  } else {
    schema = Schema::kOrthogonalArbitrary;
    path = "WS-prefixes overlap -> Orthogonal-Arbitrary (model may "
           "still pick a truncated OD slice)";
  }
  stage.emit({{"fused_rank", fs.rank()}, {"fused_shape", fs},
              {"fvi_matches", fp.fvi_matches()},
              {"decision", to_string(schema)}, {"path", path}});
  return schema;
}

Index od_max_slice_vol(const TransposeProblem& problem,
                       const sim::DeviceProperties& props,
                       Index overbooking) {
  const Index smem_per_block = kOdSmemElems * problem.elem_size;
  const Index min_num_blocks =
      props.num_sms *
      std::max<Index>(1, props.shared_mem_per_sm_bytes / smem_per_block);
  const Index maxlimit =
      problem.volume() / std::max<Index>(1, overbooking * min_num_blocks);
  return std::max<Index>(maxlimit, 64 * 64);
}

KernelSelection select_kernel(const TransposeProblem& problem,
                              const PerfModel& model,
                              const PlanOptions& opts) {
  const sim::DeviceProperties& props = model.props();
  const Index max_smem_elems =
      props.shared_mem_per_block_bytes / problem.elem_size;
  telemetry::Stage stage(telemetry::Site::kSelectKernel);
  KernelSelection sel;
  sel.schema = classify(problem);

  auto finish = [&](KernelSelection s) {
    stage.emit({{"shape", problem.shape}, {"perm", problem.perm},
                {"elem_size", problem.elem_size},
                {"schema", to_string(s.schema)},
                {"predicted_us", s.predicted_s * 1e6},
                {"candidates_considered", s.candidates_considered}});
    return s;
  };

  auto select_oa = [&]() -> std::optional<std::pair<OaConfig, double>> {
    telemetry::Stage search(telemetry::Site::kSliceSearchOa);
    auto cands = enumerate_oa_slices(problem, max_smem_elems);
    std::optional<std::pair<OaSlice, double>> best;
    for (const auto& s : cands) {
      const OaConfig geom = build_oa_config(problem, s, opts.enable_coarsening,
                                            /*with_offsets=*/false);
      const double t = model.predict_oa(problem, geom);
      ++sel.candidates_considered;
      telemetry::event(telemetry::Site::kOaCandidate,
                       {{"in_vol", geom.in_vol}, {"oos_vol", geom.oos_vol},
                        {"block_a", s.block_a}, {"block_b", s.block_b},
                        {"predicted_us", t * 1e6}});
      if (!best || t < best->second) best = {s, t};
    }
    search.emit({{"candidates", cands.size()},
                 {"best_predicted_us", best_us(best)}});
    if (!best) return std::nullopt;
    return std::make_pair(
        build_oa_config(problem, best->first, opts.enable_coarsening),
        best->second);
  };

  auto select_fvi_small = [&]() -> std::optional<std::pair<FviSmallConfig, double>> {
    telemetry::Stage search(telemetry::Site::kSliceSearchFviSmall);
    std::optional<std::pair<FviSmallConfig, double>> best;
    Index evaluated = 0;
    for (Index b : enumerate_fvi_small_blockings(problem, max_smem_elems)) {
      FviSmallConfig cfg =
          build_fvi_small_config(problem, b, opts.enable_coarsening);
      const double t = model.predict_fvi_small(problem, cfg);
      ++sel.candidates_considered;
      ++evaluated;
      telemetry::event(telemetry::Site::kFviSmallCandidate,
                       {{"b", b}, {"pad", cfg.pad}, {"predicted_us", t * 1e6}});
      if (!best || t < best->second) best = {std::move(cfg), t};
    }
    search.emit({{"candidates", evaluated},
                 {"best_predicted_us", best_us(best)}});
    return best;
  };

  switch (sel.schema) {
    case Schema::kCopy:
    case Schema::kFviMatchLarge: {
      sel.fvi_large = build_fvi_large_config(problem, opts.enable_coarsening);
      sel.predicted_s = model.predict_fvi_large(problem, sel.fvi_large);
      sel.candidates_considered = 1;
      return finish(std::move(sel));
    }
    case Schema::kFviMatchSmall: {
      auto best = select_fvi_small();
      TTLG_ASSERT(best.has_value(), "b = 1 is always a feasible blocking");
      sel.fvi_small = std::move(best->first);
      sel.predicted_s = best->second;
      return finish(std::move(sel));
    }
    case Schema::kOrthogonalDistinct:
    case Schema::kOrthogonalArbitrary: {
      // Alg. 3: enumerate warp-multiple slice volumes, score each with
      // the performance model, keep the best. When the WS-target
      // prefixes are disjoint the flowchart picks OD directly; when they
      // overlap, the left branch of Fig. 3 allows "either the OD or the
      // OA strategy" — OD candidates then have prefixes truncated by the
      // disjointness constraint and the model arbitrates (this is how
      // the paper's Fig. 5 case, 27^5 perm 41203, ends up on OD with a
      // 189x27 slice).
      std::optional<std::pair<OdSlice, double>> best_od;
      if (!problem.fused.perm.fvi_matches()) {
        telemetry::Stage search(telemetry::Site::kSliceSearchOd);
        const Index max_vol =
            od_max_slice_vol(problem, props, opts.overbooking_factor);
        auto cands = enumerate_od_slices(problem, max_vol);
        const std::size_t enumerated = cands.size();
        constexpr std::size_t kMaxEval = 256;
        if (cands.size() > kMaxEval) {
          std::vector<OdSlice> sub;
          sub.reserve(kMaxEval);
          for (std::size_t i = 0; i < kMaxEval; ++i)
            sub.push_back(cands[i * cands.size() / kMaxEval]);
          cands.swap(sub);
        }
        for (const auto& s : cands) {
          const OdConfig geom =
              build_od_config(problem, s, /*with_offsets=*/false);
          const double t = model.predict_od(problem, geom);
          ++sel.candidates_considered;
          telemetry::event(telemetry::Site::kOdCandidate,
                           {{"a_vol", s.a_vol}, {"b_vol", s.b_vol},
                            {"block_a", s.block_a}, {"block_b", s.block_b},
                            {"predicted_us", t * 1e6}});
          if (!best_od || t < best_od->second) best_od = {s, t};
        }
        search.emit({{"max_slice_vol", max_vol}, {"enumerated", enumerated},
                     {"evaluated", cands.size()},
                     {"best_predicted_us", best_us(best_od)}});
      }
      if (sel.schema == Schema::kOrthogonalDistinct && best_od) {
        sel.od = build_od_config(problem, best_od->first);
        sel.predicted_s = best_od->second;
        return finish(std::move(sel));
      }

      auto best_oa = select_oa();
      TTLG_ASSERT(best_oa.has_value(),
                  "the OA fallback candidate is always feasible");
      // Flowchart's model-resolved branch: matching small FVI where the
      // two-dim products fall short of WS — compare against Alg. 6.
      if (problem.fused.perm.fvi_matches() && problem.fused.shape.rank() >= 3) {
        auto best_fvis = select_fvi_small();
        if (best_fvis && best_fvis->second < best_oa->second) {
          sel.schema = Schema::kFviMatchSmall;
          sel.fvi_small = std::move(best_fvis->first);
          sel.predicted_s = best_fvis->second;
          return finish(std::move(sel));
        }
      }
      if (best_od && best_od->second < best_oa->second) {
        sel.schema = Schema::kOrthogonalDistinct;
        sel.od = build_od_config(problem, best_od->first);
        sel.predicted_s = best_od->second;
        return finish(std::move(sel));
      }
      sel.schema = Schema::kOrthogonalArbitrary;
      sel.oa = std::move(best_oa->first);
      sel.predicted_s = best_oa->second;
      return finish(std::move(sel));
    }
  }
  TTLG_ASSERT(false, "unreachable schema");
}

}  // namespace ttlg
