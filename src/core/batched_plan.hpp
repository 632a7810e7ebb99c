// Batched transposition: the same permutation applied to many tensors
// of identical shape (a common ML pattern — e.g. per-layer layout
// conversion). The plan — kernel selection, slice search and the
// texture-resident offset arrays — is built once and reused for every
// batch member, which is exactly where TTLG's cheap-plan design pays.
//
// Execution is FUSED: batches of 2+ members on an undegraded plan fold
// into one super-grid thread-pool dispatch (Plan::execute_batched /
// sim::Device::launch_batched) instead of a per-member execute loop,
// killing the per-launch dispatch overhead that dominates small
// tensors. Per-member counters, times and outputs stay bit-identical
// to the unfused loop at every thread count. A retryable fused failure
// falls back to the per-member loop (which carries the full
// degradation ladder); on a mid-loop failure the classified error
// names the failing member and how many members completed, and the
// flight recorder keeps the post-mortem.
#pragma once

#include "core/plan.hpp"

namespace ttlg {

struct BatchedResult {
  double total_time_s = 0;            ///< sum of simulated kernel times
  sim::LaunchCounters counters;       ///< aggregated over the batch
  std::vector<double> per_call_s;     ///< simulated time per member
  /// Exact per-member counters (bit-identical to individual executes).
  std::vector<sim::LaunchCounters> per_member;
  /// True when the batch ran as ONE fused super-grid launch; false for
  /// the per-member loop (batch of 1, degraded plan, or fused-path
  /// fallback).
  bool fused = false;
};

/// Batched execution engine over any plan (the server coalescer holds
/// shared_ptr<const Plan> from the cache, so this is a free function;
/// BatchedPlan below is the owning convenience wrapper). Fuses when the
/// batch has 2+ members and the plan is undegraded; otherwise — or when
/// the fused attempt fails retryably — runs the per-member loop with
/// the full degradation ladder.
template <class T>
BatchedResult run_batched(
    const Plan& plan,
    const std::vector<std::pair<sim::DeviceBuffer<T>, sim::DeviceBuffer<T>>>&
        batch,
    T alpha = T{1}, T beta = T{0}) {
  TTLG_CHECK(!batch.empty(), "empty batch");
  BatchedResult res;
  res.per_call_s.reserve(batch.size());
  res.per_member.reserve(batch.size());
  if (batch.size() >= 2 && !plan.degraded()) {
    try {
      const auto runs = plan.execute_batched<T>(
          std::span<const std::pair<sim::DeviceBuffer<T>,
                                    sim::DeviceBuffer<T>>>(batch),
          alpha, beta);
      for (const sim::LaunchResult& run : runs) {
        res.total_time_s += run.time_s;
        res.counters += run.counters;
        res.per_call_s.push_back(run.time_s);
        res.per_member.push_back(run.counters);
      }
      res.fused = true;
      telemetry::event(telemetry::Site::kBatchFused,
                       {{"members", batch.size()}, {"fused", "1"}});
      return res;
    } catch (const Error& e) {
      // Non-retryable (bad buffers, size mismatch) propagates with its
      // classification; retryable failures re-run through the loop,
      // whose per-member ladder owns recovery.
      if (!retryable(e.code())) throw;
      throw_if_past_deadline("batched_plan.fused_fallback");
      telemetry::event(telemetry::Site::kBatchFallback,
                       {{"code", to_string(e.code())}, {"cause", e.what()}});
    }
  }
  std::size_t done = 0;
  try {
    for (const auto& [in, out] : batch) {
      const auto run = plan.execute<T>(in, out, alpha, beta);
      res.total_time_s += run.time_s;
      res.counters += run.counters;
      res.per_call_s.push_back(run.time_s);
      res.per_member.push_back(run.counters);
      ++done;
    }
  } catch (const Error& e) {
    // Partial progress must not vanish silently: the classified error
    // names the failing member and the completed count, and the flight
    // recorder keeps the context for the post-mortem dump.
    telemetry::event(telemetry::Site::kBatchMemberFailed,
                     {{"member", done}, {"members", batch.size()},
                      {"code", to_string(e.code())}, {"cause", e.what()}});
    throw Error("batched member " + std::to_string(done) + " of " +
                    std::to_string(batch.size()) + " failed after " +
                    std::to_string(done) + " member(s) completed: " +
                    e.what(),
                e.code());
  }
  telemetry::event(telemetry::Site::kBatchLooped,
                   {{"members", batch.size()}, {"fused", "0"}});
  return res;
}

/// Non-throwing batched execution for serving paths (mirrors
/// Plan::try_execute): classified failures — including a
/// kDeadlineExceeded raised between ladder rungs — come back as a
/// Status instead of unwinding across the request-queue boundary. A
/// mid-batch failure's Status names the failing member index and the
/// completed count (see run_batched).
template <class T>
Expected<BatchedResult> try_run_batched(
    const Plan& plan,
    const std::vector<std::pair<sim::DeviceBuffer<T>, sim::DeviceBuffer<T>>>&
        batch,
    T alpha = T{1}, T beta = T{0}) {
  auto res =
      capture([&] { return run_batched<T>(plan, batch, alpha, beta); });
  if (!res.has_value())
    note_status_failure("batched_plan.execute", res.status());
  return res;
}

class BatchedPlan {
 public:
  BatchedPlan(sim::Device& dev, const Shape& shape, const Permutation& perm,
              const PlanOptions& opts = {})
      : plan_(make_plan(dev, shape, perm, opts)) {}

  const Plan& plan() const { return plan_; }

  /// Execute the planned transposition for every (in, out) pair —
  /// fused into one super-grid launch whenever possible (see
  /// run_batched above for the fallback ladder).
  template <class T>
  BatchedResult execute(
      const std::vector<std::pair<sim::DeviceBuffer<T>,
                                  sim::DeviceBuffer<T>>>& batch,
      T alpha = T{1}, T beta = T{0}) const {
    return run_batched<T>(plan_, batch, alpha, beta);
  }

  /// Non-throwing batched execution; see try_run_batched.
  template <class T>
  Expected<BatchedResult> try_execute(
      const std::vector<std::pair<sim::DeviceBuffer<T>,
                                  sim::DeviceBuffer<T>>>& batch,
      T alpha = T{1}, T beta = T{0}) const {
    return try_run_batched<T>(plan_, batch, alpha, beta);
  }

 private:
  Plan plan_;
};

}  // namespace ttlg
