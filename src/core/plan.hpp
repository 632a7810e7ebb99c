// Execution plans: the result of TTLG's planning phase (taxonomy +
// model-driven slice choice + offset-array upload). A plan is created
// once and executed many times — the split the paper's single-use vs
// repeated-use evaluation is about.
//
// Robustness: plan construction and execution both carry a graceful
// degradation ladder (cuTT/HPTT-style): on a retryable classified
// failure (ResourceExhausted / FaultInjected / Unsupported) the library
// falls back specialized schema -> generic Orthogonal-Arbitrary ->
// naive kernel, with bounded retry and per-step telemetry
// (robustness.fallback.* counters, robustness.fallback trace events).
// Non-retryable errors (InvalidArgument, DataLoss, Internal) propagate.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/deadline.hpp"
#include "common/status.hpp"
#include "core/launch_helpers.hpp"
#include "core/naive_fallback.hpp"
#include "core/planner.hpp"
#include "core/spec_exec.hpp"
#include "gpusim/device.hpp"
#include "telemetry/event.hpp"

namespace ttlg {

/// Which rung of the degradation ladder a plan (or its last execution)
/// is on. kGenericOa = the model-chosen schema could not be
/// materialized/launched and the generic Orthogonal-Arbitrary path ran
/// instead; kNaive = the last-resort naive kernel (no shared memory, no
/// texture arrays, no plan-time device allocations).
enum class ExecPath : int { kPlanned = 0, kGenericOa = 1, kNaive = 2 };

const char* to_string(ExecPath path);

/// Post-mortem hook shared by the try_* entry points: when `st` is
/// non-OK, emits an error-level structured log event and asks the
/// flight recorder to dump its last-N-events context naming `site`
/// (telemetry/flight_recorder.hpp). No-op on an OK status; returns
/// `st` unchanged so call sites can stay expression-shaped.
const Status& note_status_failure(const char* site, const Status& st);

class Plan {
 public:
  Plan() = default;
  Plan(const Plan&) = delete;
  Plan& operator=(const Plan&) = delete;
  Plan(Plan&& o) noexcept { move_from(o); }
  Plan& operator=(Plan&& o) noexcept {
    if (this != &o) {
      release();
      move_from(o);
    }
    return *this;
  }
  ~Plan() { release(); }

  bool valid() const { return dev_ != nullptr; }
  Schema schema() const { return sel_.schema; }
  const TransposeProblem& problem() const { return problem_; }
  const KernelSelection& selection() const { return sel_; }
  /// Model-predicted kernel time (the §V queryable estimate).
  double predicted_time_s() const { return sel_.predicted_s; }
  /// Grid size of the planned (rung-1) kernel — the block-id space that
  /// execute_window() windows over. Valid plans only.
  Index grid_blocks() const;
  /// Host wall-clock spent planning: kernel selection, offset upload and
  /// the stride-program compile (finalize_specialization).
  double plan_wall_s() const { return plan_wall_s_; }

  /// The rung plan construction landed on (kPlanned unless make_plan
  /// itself had to degrade).
  ExecPath plan_path() const { return path_; }
  /// The rung the most recent execute() actually ran on.
  ExecPath last_exec_path() const {
    return last_path_.load(std::memory_order_relaxed);
  }
  /// True when planning degraded below the model-chosen schema. The
  /// plan cache refuses to retain degraded plans (the pressure that
  /// caused the degradation may be transient).
  bool degraded() const { return path_ != ExecPath::kPlanned; }

  /// The specialization tier this plan executes at (kGeneric when no
  /// stride program was compiled — disabled, degraded, rejected by the
  /// amortization cap, or failed verification).
  SpecTier specialization_tier() const {
    return spec_ ? spec_->tier : SpecTier::kGeneric;
  }

  /// (Re)run plan-time specialization: compile, verify and install the
  /// stride program for the current selection, or drop back to the
  /// generic path when `enabled` is false or compilation rejects the
  /// plan. Called by make_plan / make_plan_measured / load_plan after
  /// the selection is final; exported publicly so callers that assemble
  /// plans via from_selection can opt in too. Emits the
  /// plan.specialization_tier.* counter, a plan.specialized log event
  /// and a flight-recorder note.
  void finalize_specialization(bool enabled);

  std::string describe() const;

  /// Assemble a plan from an explicit kernel selection (uploads the
  /// offset arrays). Used by make_plan and by plan deserialization;
  /// application code normally calls make_plan instead.
  static Plan from_selection(sim::Device& dev, TransposeProblem problem,
                             KernelSelection sel);

  /// Last rung of the ladder: a plan that executes through the naive
  /// kernel. Needs no device allocations, so it cannot fail to build.
  /// `sel` records the selection whose materialization failed.
  static Plan naive_fallback_plan(sim::Device& dev, TransposeProblem problem,
                                  KernelSelection sel);

  /// Run the planned kernel: out = alpha * permute(in) + beta * out.
  /// T must match the planned element size; buffers must hold exactly
  /// problem().volume() elements and must not alias (the library is
  /// out-of-place only). beta != 0 reads the previous output (extra
  /// DRAM traffic, charged by the simulator). On a retryable classified
  /// failure the degradation ladder re-launches (bounded by
  /// PlanOptions::max_exec_retries) and then falls back generic-OA ->
  /// naive; the result is bit-identical to the planned kernel's.
  template <class T>
  sim::LaunchResult execute(sim::DeviceBuffer<T> in, sim::DeviceBuffer<T> out,
                            T alpha = T{1}, T beta = T{0}) const {
    TTLG_CHECK(valid(), "executing an empty plan");
    TTLG_CHECK(static_cast<int>(sizeof(T)) == problem_.elem_size,
               "element type does not match the planned element size");
    TTLG_CHECK(in.size() == problem_.volume() &&
                   out.size() == problem_.volume(),
               "buffer sizes must equal the tensor volume");
    validate_exec_buffers(in.base_addr(),
                          in.size() * static_cast<Index>(sizeof(T)),
                          in.valid(), out.base_addr(),
                          out.size() * static_cast<Index>(sizeof(T)),
                          out.valid());
    const std::pair<sim::DeviceBuffer<T>, sim::DeviceBuffer<T>> member{in,
                                                                        out};
    bool planned = false;
    const sim::LaunchResult res =
        run_ladder<T>(member, Epilogue<T>{alpha, beta}, planned);
    // Accuracy residuals compare the model's prediction with the kernel
    // it actually predicted — fallback executions would poison them.
    telemetry::event(telemetry::Site::kPlanExecution,
                     {{"exec_us", res.time_s * 1e6},
                      {"schema", to_string(sel_.schema)},
                      {"predicted_s", planned ? std::optional(sel_.predicted_s)
                                              : std::nullopt},
                      {"measured_s", res.time_s}});
    return res;
  }

  /// Non-throwing execute for hot serving paths: classified failures
  /// come back as a Status instead of unwinding.
  template <class T>
  Expected<sim::LaunchResult> try_execute(sim::DeviceBuffer<T> in,
                                          sim::DeviceBuffer<T> out,
                                          T alpha = T{1},
                                          T beta = T{0}) const {
    auto res = capture([&] { return execute<T>(in, out, alpha, beta); });
    if (!res.has_value()) note_status_failure("plan.execute", res.status());
    return res;
  }

  /// Run a contiguous block-id window [offset, offset + count) of the
  /// PLANNED kernel's grid: the shard primitive. Block ids stay
  /// absolute, so N disjoint windows covering [0, grid_blocks())
  /// together perform exactly the blocks of one full execute() — the
  /// invariant the sharded executor's counter roll-up rests on. Unlike
  /// execute(), a window runs rung 1 only (no degradation ladder: the
  /// OA/naive fallback grids do not map onto planned-grid windows —
  /// shard-level failover owns retries), and degraded plans are
  /// rejected as kUnsupported. `win.tex_capture` records texture
  /// accesses for cross-window replay instead of counting local misses.
  template <class T>
  sim::LaunchResult execute_window(sim::DeviceBuffer<T> in,
                                   sim::DeviceBuffer<T> out, LaunchWindow win,
                                   T alpha = T{1}, T beta = T{0}) const {
    TTLG_CHECK(valid(), "executing an empty plan");
    TTLG_CHECK_CODE(path_ == ExecPath::kPlanned, ErrorCode::kUnsupported,
                    "windowed execution requires an undegraded plan");
    TTLG_CHECK(static_cast<int>(sizeof(T)) == problem_.elem_size,
               "element type does not match the planned element size");
    TTLG_CHECK(in.size() == problem_.volume() &&
                   out.size() == problem_.volume(),
               "buffer sizes must equal the tensor volume");
    const Index nb = grid_blocks();
    if (win.count < 0) win.count = nb - win.offset;
    TTLG_CHECK(win.offset >= 0 && win.count > 0 &&
                   win.offset + win.count <= nb,
               "block window out of range for the planned grid");
    validate_exec_buffers(in.base_addr(),
                          in.size() * static_cast<Index>(sizeof(T)),
                          in.valid(), out.base_addr(),
                          out.size() * static_cast<Index>(sizeof(T)),
                          out.valid());
    const std::pair<sim::DeviceBuffer<T>, sim::DeviceBuffer<T>> member{in,
                                                                        out};
    sim::LaunchResult res =
        launch_planned<T>({&member, 1}, Epilogue<T>{alpha, beta}, win)
            .front();
    last_path_ = path_;
    // No kPlanExecution event: the model predicted the FULL grid, so a
    // window would pollute the accuracy residuals.
    return res;
  }

  /// Fused batched execution: the planned kernel applied to every
  /// (in, out) member pair through ONE super-grid dispatch
  /// (sim::Device::launch_batched) instead of members.size() separate
  /// executes — the launch-overhead fix for small repeated tensors.
  /// Per-member LaunchResults (counters, times, outputs) are
  /// bit-identical to individual execute() calls at every thread
  /// count. Like execute_window this is a rung-1-only primitive:
  /// degraded plans are rejected as kUnsupported (retryable), and the
  /// caller — the BatchedPlan engine or the server coalescer — owns
  /// the fallback to the per-member loop with its full ladder.
  template <class T>
  std::vector<sim::LaunchResult> execute_batched(
      MemberSpan<T> members, T alpha = T{1}, T beta = T{0}) const {
    TTLG_CHECK(valid(), "executing an empty plan");
    TTLG_CHECK(!members.empty(), "empty batch");
    TTLG_CHECK_CODE(path_ == ExecPath::kPlanned, ErrorCode::kUnsupported,
                    "fused batched execution requires an undegraded plan");
    TTLG_CHECK(static_cast<int>(sizeof(T)) == problem_.elem_size,
               "element type does not match the planned element size");
    for (const auto& [in, out] : members) {
      TTLG_CHECK(in.size() == problem_.volume() &&
                     out.size() == problem_.volume(),
                 "buffer sizes must equal the tensor volume");
      validate_exec_buffers(in.base_addr(),
                            in.size() * static_cast<Index>(sizeof(T)),
                            in.valid(), out.base_addr(),
                            out.size() * static_cast<Index>(sizeof(T)),
                            out.valid());
    }
    std::vector<sim::LaunchResult> res =
        launch_planned<T>(members, Epilogue<T>{alpha, beta});
    last_path_ = path_;
    for (const sim::LaunchResult& r : res)
      telemetry::event(telemetry::Site::kPlanExecution,
                       {{"exec_us", r.time_s * 1e6},
                        {"schema", to_string(sel_.schema)},
                        {"predicted_s", sel_.predicted_s},
                        {"measured_s", r.time_s}});
    return res;
  }

 private:
  friend Plan make_plan(sim::Device&, const Shape&, const Permutation&,
                        const PlanOptions&);
  void release();
  void move_from(Plan& o);

  /// Dispatch the model-selected kernel (rung 1 of the ladder) over
  /// every member: a single execution is a batch of one.
  template <class T>
  std::vector<sim::LaunchResult> launch_planned(MemberSpan<T> members,
                                                const Epilogue<T>& epi,
                                                LaunchWindow win = {}) const {
    // Specialized fast path: bit-identical to the generic kernels in
    // outputs, counters and simulated times (enforced at build time by
    // the program verifier). Epilogues read/scale data the compiled
    // copy tables move verbatim, so only identity launches qualify.
    if (spec_ && epi.is_identity())
      return launch_specialized<T>(*dev_, *spec_, sel_, members, win);
    return launch_generic<T>(*dev_, sel_, tex_, members, epi, win);
  }

  /// The execute-time degradation ladder; `planned` reports whether the
  /// model-selected kernel (rung 1) produced the result.
  template <class T>
  sim::LaunchResult run_ladder(
      const std::pair<sim::DeviceBuffer<T>, sim::DeviceBuffer<T>>& member,
      const Epilogue<T>& epi, bool& planned) const {
    if (path_ == ExecPath::kNaive) {
      const auto res = launch_naive<T>(*dev_, naive_config(), member.first,
                                       member.second, epi);
      last_path_ = ExecPath::kNaive;
      return res;
    }

    // Rung 1: the planned kernel, with bounded retry.
    for (int attempt = 0;;) {
      try {
        const auto res = launch_planned<T>({&member, 1}, epi).front();
        last_path_ = path_;
        planned = true;
        return res;
      } catch (const Error& e) {
        if (!fallback_enabled_ || !retryable(e.code())) throw;
        // A doomed request must not keep descending the ladder: every
        // rung transition is a deadline cancellation point (the serving
        // layer installs the context via ScopedDeadline).
        throw_if_past_deadline("plan.execute.retry");
        const bool retry = attempt++ < max_exec_retries_;
        const char* to = retry ? "retry"
                         : sel_.schema != Schema::kOrthogonalArbitrary
                             ? "oa"
                             : "naive";
        telemetry::event(telemetry::Site::kFallback,
                         {{"stage", "exec"}, {"to", to},
                          {"code", to_string(e.code())}, {"cause", e.what()}});
        if (!retry) break;
      }
    }

    // Rung 2: the generic Orthogonal-Arbitrary path (skipped when the
    // planned kernel already was OA — it would fail the same way).
    if (sel_.schema != Schema::kOrthogonalArbitrary &&
        ensure_exec_oa_fallback()) {
      try {
        const auto res =
            launch_generic<T>(*dev_, *fb_sel_, fb_tex_, {&member, 1}, epi)
                .front();
        last_path_ = ExecPath::kGenericOa;
        telemetry::event(telemetry::Site::kRecovered);
        return res;
      } catch (const Error& e) {
        if (!retryable(e.code())) throw;
        throw_if_past_deadline("plan.execute.oa_fallback");
        telemetry::event(telemetry::Site::kFallback,
                         {{"stage", "exec"}, {"to", "naive"},
                          {"code", to_string(e.code())}, {"cause", e.what()}});
      }
    }

    // Rung 3: the naive kernel — no shared memory, no texture arrays.
    // If even this launch fails the classified error propagates.
    throw_if_past_deadline("plan.execute.naive_fallback");
    const auto res = launch_naive<T>(*dev_, naive_config(), member.first,
                                     member.second, epi);
    last_path_ = ExecPath::kNaive;
    telemetry::event(telemetry::Site::kRecovered);
    return res;
  }

  /// Out-of-place + materialization guards shared by all rungs.
  void validate_exec_buffers(Index in_base, Index in_bytes, bool in_backed,
                             Index out_base, Index out_bytes,
                             bool out_backed) const;
  /// Lazily build the generic-OA fallback config and upload its offset
  /// arrays; false when infeasible or when the upload itself hits a
  /// retryable failure (the ladder then proceeds to naive).
  bool ensure_exec_oa_fallback() const;
  /// Lazily built naive-kernel config (rung 3).
  const NaiveConfig& naive_config() const;

  sim::Device* dev_ = nullptr;
  TransposeProblem problem_;
  KernelSelection sel_;
  // Offset indirection arrays resident in (texture) device memory.
  OffsetArrays tex_;
  // Compiled stride program (plan-time specialization); null = generic.
  // Shared so moved-from plans and copies of the launch path never
  // dangle; the program itself stores no pointers into sel_.
  std::shared_ptr<const SpecProgram> spec_;
  double plan_wall_s_ = 0;

  ExecPath path_ = ExecPath::kPlanned;
  bool fallback_enabled_ = true;
  int max_exec_retries_ = 1;
  // Execute-time fallback state, built lazily on first failure and
  // reused by later executions. Concurrent execute() calls on one plan
  // are supported (the parallel engine and the shared PlanCache depend
  // on it): last_path_ is atomic and the lazy fallback state is built
  // under exec_mu_ (behind a unique_ptr so the Plan stays movable).
  // Callers must still hand each concurrent execution its own output
  // buffer — the transposition itself scatters writes.
  mutable std::atomic<ExecPath> last_path_{ExecPath::kPlanned};
  mutable std::unique_ptr<std::mutex> exec_mu_ =
      std::make_unique<std::mutex>();
  mutable std::unique_ptr<KernelSelection> fb_sel_;
  mutable OffsetArrays fb_tex_;
  mutable std::unique_ptr<NaiveConfig> naive_cfg_;
};

/// Full planning pipeline: classify, search slices with the performance
/// model, compute and upload offset arrays. The returned plan remains
/// bound to `dev` (which must outlive it). With opts.enable_fallback
/// (default), retryable materialization failures degrade the plan
/// generic-OA -> naive instead of propagating.
Plan make_plan(sim::Device& dev, const Shape& shape, const Permutation& perm,
               const PlanOptions& opts = {});

/// Non-throwing variant: classified failures come back as a Status.
Expected<Plan> try_make_plan(sim::Device& dev, const Shape& shape,
                             const Permutation& perm,
                             const PlanOptions& opts = {});

/// §V queryable model interface: predicted kernel time for a
/// transposition WITHOUT building or uploading a plan. Intended for
/// higher-level libraries (e.g. TTGT contraction planning).
double predict_transpose_time(const sim::DeviceProperties& props,
                              const Shape& shape, const Permutation& perm,
                              const PlanOptions& opts = {});

/// The paper's reported metric: 2 * volume * elem_size / time, in GB/s.
double achieved_bandwidth_gbps(Index volume, int elem_size, double seconds);

}  // namespace ttlg
