#include "core/plan.hpp"

#include <optional>
#include <sstream>

#include "common/timer.hpp"
#include "gpusim/fault_injector.hpp"
#include "telemetry/event.hpp"
#include "telemetry/flight_recorder.hpp"

namespace ttlg {
namespace {

/// The generic Orthogonal-Arbitrary selection used when the
/// model-chosen schema cannot be materialized: first admissible slice,
/// no model-driven search (the point is feasibility, not speed).
KernelSelection generic_oa_selection(const TransposeProblem& problem,
                                     const PerfModel& model,
                                     const sim::DeviceProperties& props) {
  const Index max_smem_elems =
      props.shared_mem_per_block_bytes / problem.elem_size;
  auto cands = enumerate_oa_slices(problem, max_smem_elems);
  TTLG_CHECK_CODE(!cands.empty(), ErrorCode::kUnsupported,
                  "no feasible Orthogonal-Arbitrary slice for fallback");
  KernelSelection sel;
  sel.schema = Schema::kOrthogonalArbitrary;
  sel.oa = build_oa_config(problem, cands.front(),
                           /*enable_coarsening=*/true);
  sel.predicted_s = model.predict_oa(problem, sel.oa);
  sel.candidates_considered = 1;
  return sel;
}

}  // namespace

const char* to_string(ExecPath path) {
  switch (path) {
    case ExecPath::kPlanned:
      return "planned";
    case ExecPath::kGenericOa:
      return "generic-oa";
    case ExecPath::kNaive:
      return "naive";
  }
  return "?";
}

void Plan::release() {
  if (!dev_) return;
  tex_.release(*dev_);
  fb_tex_.release(*dev_);
  dev_ = nullptr;
}

void Plan::move_from(Plan& o) {
  dev_ = o.dev_;
  problem_ = std::move(o.problem_);
  sel_ = std::move(o.sel_);
  tex_ = o.tex_;
  plan_wall_s_ = o.plan_wall_s_;
  path_ = o.path_;
  fallback_enabled_ = o.fallback_enabled_;
  max_exec_retries_ = o.max_exec_retries_;
  last_path_.store(o.last_path_.load());
  exec_mu_ = std::move(o.exec_mu_);
  spec_ = std::move(o.spec_);
  fb_sel_ = std::move(o.fb_sel_);
  fb_tex_ = o.fb_tex_;
  naive_cfg_ = std::move(o.naive_cfg_);
  o.dev_ = nullptr;
  o.tex_ = o.fb_tex_ = {};
}

Index Plan::grid_blocks() const {
  TTLG_CHECK(valid(), "querying an empty plan");
  return launch_config_for(sel_, problem_.elem_size).grid_blocks;
}

std::string Plan::describe() const {
  std::ostringstream os;
  os << to_string(sel_.schema) << " for " << problem_.shape.to_string()
     << " -> " << problem_.perm.to_string() << " (scaled rank "
     << problem_.scaled_rank() << ")";
  switch (sel_.schema) {
    case Schema::kOrthogonalDistinct:
      os << ", slice " << sel_.od.slice.a_vol << "x" << sel_.od.slice.b_vol
         << " (blockA=" << sel_.od.slice.block_a
         << ", blockB=" << sel_.od.slice.block_b << ")";
      break;
    case Schema::kOrthogonalArbitrary:
      os << ", slice " << sel_.oa.in_vol << "x" << sel_.oa.oos_vol
         << ", coarsen=" << sel_.oa.coarsen_extent;
      break;
    case Schema::kFviMatchSmall:
      os << ", b=" << sel_.fvi_small.b << ", pad=" << sel_.fvi_small.pad;
      break;
    default:
      break;
  }
  os << ", predicted " << sel_.predicted_s * 1e6 << " us";
  os << ", specialization=" << to_string(specialization_tier());
  if (degraded()) os << ", degraded[" << to_string(path_) << "]";
  return os.str();
}

void Plan::finalize_specialization(bool enabled) {
  spec_.reset();
  if (enabled && valid() && path_ == ExecPath::kPlanned) {
    const telemetry::Stage stage(telemetry::Site::kSpecialize);
    SpecBuildInput in;
    in.problem = &problem_;
    in.sel = &sel_;
    in.props = &dev_->props();
    in.tex_base[0] = tex_.t0.base_addr();
    in.tex_base[1] = tex_.t1.base_addr();
    in.tex_base[2] = tex_.t2.base_addr();
    spec_ = build_spec_program(in);
  }
  std::optional<std::int64_t> program_bytes;
  if (spec_) program_bytes = spec_->footprint_bytes();
  telemetry::event(telemetry::Site::kSpecialized,
                   {{"tier", to_string(specialization_tier())},
                    {"schema", to_string(sel_.schema)},
                    {"enabled", enabled ? "1" : "0"},
                    {"program_bytes", program_bytes}});
}

void Plan::validate_exec_buffers(Index in_base, Index in_bytes,
                                 bool in_backed, Index out_base,
                                 Index out_bytes, bool out_backed) const {
  // The library is out-of-place only: every kernel scatters writes while
  // reads are still in flight, so any overlap corrupts data silently.
  TTLG_CHECK(!(in_base < out_base + out_bytes &&
               out_base < in_base + in_bytes),
             "input and output buffers alias (overlap); TTLG "
             "transpositions are out-of-place only");
  // Count-only sweeps legitimately run on alloc_virtual handles; only
  // functional execution dereferences the storage.
  if (dev_->mode() == sim::ExecMode::kFunctional)
    TTLG_CHECK(in_backed && out_backed,
               "functional execution requires materialized device "
               "buffers (Device::alloc), got a null/virtual handle");
}

bool Plan::ensure_exec_oa_fallback() const {
  std::lock_guard<std::mutex> lk(*exec_mu_);
  if (fb_sel_) return true;
  try {
    auto sel = std::make_unique<KernelSelection>(generic_oa_selection(
        problem_, PerfModel(dev_->props()), dev_->props()));
    fb_tex_.upload(*dev_, *sel);
    fb_sel_ = std::move(sel);
    return true;
  } catch (const Error& e) {
    // Free whatever part of the upload survived, then let the ladder
    // proceed to the naive rung; non-retryable errors still propagate.
    fb_tex_.release(*dev_);
    if (!retryable(e.code())) throw;
    return false;
  }
}

const NaiveConfig& Plan::naive_config() const {
  std::lock_guard<std::mutex> lk(*exec_mu_);
  if (!naive_cfg_)
    naive_cfg_ = std::make_unique<NaiveConfig>(build_naive_config(problem_));
  return *naive_cfg_;
}

Plan Plan::from_selection(sim::Device& dev, TransposeProblem problem,
                          KernelSelection sel) {
  const telemetry::Stage stage(telemetry::Site::kUploadOffsets);
  Plan plan;
  plan.dev_ = &dev;
  plan.problem_ = std::move(problem);
  plan.sel_ = std::move(sel);

  // Upload the offset indirection arrays (they live in texture memory
  // and are shared by all thread blocks; this is plan-time work). If an
  // upload fails mid-way, `plan` unwinds through ~Plan and frees the
  // buffers that did land.
  plan.tex_.upload(dev, plan.sel_);
  return plan;
}

Plan Plan::naive_fallback_plan(sim::Device& dev, TransposeProblem problem,
                               KernelSelection sel) {
  Plan plan;
  plan.dev_ = &dev;
  plan.problem_ = std::move(problem);
  plan.sel_ = std::move(sel);
  plan.path_ = ExecPath::kNaive;
  plan.last_path_ = ExecPath::kNaive;
  return plan;
}

Plan make_plan(sim::Device& dev, const Shape& shape, const Permutation& perm,
               const PlanOptions& opts) {
  const telemetry::ScopedLevel scoped_level(opts.telemetry);
  std::optional<sim::ScopedFaults> scoped_faults;
  if (opts.faults) scoped_faults.emplace(*opts.faults);
  telemetry::Stage stage(telemetry::Site::kMakePlan);
  WallTimer timer;
  auto problem = TransposeProblem::make(shape, perm, opts.elem_size);
  const PerfModel model(dev.props(), opts.model);
  auto sel = select_kernel(problem, model, opts);

  // Plan-time degradation ladder: model-chosen schema -> generic OA ->
  // naive. Only retryable classified failures descend.
  Plan plan;
  try {
    plan = Plan::from_selection(dev, problem, sel);
  } catch (const Error& e) {
    if (!opts.enable_fallback || !retryable(e.code())) throw;
    // Same contract as the execute-time ladder: a request whose
    // deadline already passed must not pay for fallback plan builds.
    throw_if_past_deadline("make_plan.fallback");
    bool recovered = false;
    if (sel.schema != Schema::kOrthogonalArbitrary) {
      try {
        plan = Plan::from_selection(
            dev, problem, generic_oa_selection(problem, model, dev.props()));
        plan.path_ = ExecPath::kGenericOa;
        recovered = true;
      } catch (const Error& e2) {
        if (!retryable(e2.code())) throw;
      }
    }
    if (!recovered) plan = Plan::naive_fallback_plan(dev, problem, sel);
    telemetry::event(telemetry::Site::kFallback,
                     {{"stage", "plan"}, {"to", recovered ? "oa" : "naive"},
                      {"code", to_string(e.code())}, {"cause", e.what()}});
    telemetry::event(telemetry::Site::kRecovered);
  }
  plan.fallback_enabled_ = opts.enable_fallback;
  plan.max_exec_retries_ = opts.max_exec_retries;
  // Compile the stride program AFTER the ladder settles (degraded plans
  // stay generic) and inside the plan-wall clock: specialization is
  // plan-time work the repeated-use split is supposed to amortize.
  plan.finalize_specialization(opts.specialize &&
                               specialization_enabled_by_env());
  plan.plan_wall_s_ = timer.seconds();
  stage.emit({{"shape", shape}, {"perm", perm},
              {"schema", to_string(plan.schema())},
              {"predicted_us", plan.predicted_time_s() * 1e6},
              {"plan_wall_ms", plan.plan_wall_s() * 1e3},
              {"degraded", plan.degraded() ? to_string(plan.plan_path())
                                           : std::optional<const char*>()}});
  return plan;
}

const Status& note_status_failure(const char* site, const Status& st) {
  if (st.is_ok()) return st;
  telemetry::event(telemetry::Site::kStatusError,
                   {{"site", site}, {"code", to_string(st.code())},
                    {"message", st.message()}});
  telemetry::FlightRecorder::global().dump_on_error(site, st.code(),
                                                    st.message());
  return st;
}

Expected<Plan> try_make_plan(sim::Device& dev, const Shape& shape,
                             const Permutation& perm,
                             const PlanOptions& opts) {
  auto res = capture([&] { return make_plan(dev, shape, perm, opts); });
  if (!res.has_value()) note_status_failure("make_plan", res.status());
  return res;
}

double predict_transpose_time(const sim::DeviceProperties& props,
                              const Shape& shape, const Permutation& perm,
                              const PlanOptions& opts) {
  const telemetry::ScopedLevel scoped_level(opts.telemetry);
  const TransposeProblem problem =
      TransposeProblem::make(shape, perm, opts.elem_size);
  const PerfModel model(props, opts.model);
  return select_kernel(problem, model, opts).predicted_s;
}

double achieved_bandwidth_gbps(Index volume, int elem_size, double seconds) {
  TTLG_CHECK(seconds > 0, "non-positive time");
  return 2.0 * static_cast<double>(volume) * elem_size / (seconds * 1e9);
}

}  // namespace ttlg
