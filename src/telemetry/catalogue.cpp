#include "telemetry/catalogue.hpp"

#include <array>

#include "common/error.hpp"

namespace ttlg::telemetry {
namespace {

using enum Site;
using enum Kind;
using enum Clock;
using enum Gate;

constexpr double kUs[] = {1, 3, 10, 30, 100, 300, 1000, 3000, 10000};
constexpr double kMs[] = {0.01, 0.03, 0.1, 0.3, 1, 3, 10, 30, 100};
constexpr double kServiceUs[] = {100,   300,    1000,   3000, 10000,
                                 30000, 100000, 300000, 1e6};
constexpr double kMembers[] = {2, 4, 8, 16, 32, 64, 128, 256};

// Row builders: each fixes a kind and the unit, clock and gate it implies.
constexpr Entry counter(Site s, const char* name, const char* doc,
                        const char* field = nullptr) {
  return {s, kCounter, name, kCounters, "count", kNone, doc, field};
}
constexpr Entry always(Site s, const char* name, const char* doc) {
  return {s, kCounter, name, kAlways, "count", kNone, doc};
}
constexpr Entry bytes(Site s, const char* name, const char* doc,
                      const char* field) {
  return {s, kCounter, name, kCounters, "bytes", kNone, doc, field};
}
constexpr Entry gauge(Site s, Kind k, const char* name, const char* unit,
                      Clock c, const char* doc, const char* field) {
  return {s, k, name, kCounters, unit, c, doc, field};
}
constexpr Entry histogram(Site s, const char* name, const char* unit, Clock c,
                          const char* doc, const char* field,
                          std::span<const double> buckets) {
  return {s, kHistogram, name, kCounters, unit, c, doc, field, buckets};
}
constexpr Entry log(Site s, const char* name, Gate g, const char* doc,
                    const char* keys = nullptr) {
  return {s, kLog, name, g, "", kNone, doc, keys};
}
constexpr Entry note(Site s, const char* name, const char* doc) {
  return {s, kNote, name, kError, "", kNone, doc};
}
constexpr Entry stage(Site s, const char* name, const char* doc,
                      const char* keys = nullptr) {
  return {s, kStage, name, kTrace, "us", kWall, doc, keys};
}
constexpr Entry instant(Site s, const char* name, const char* doc) {
  return {s, kInstant, name, kTrace, "", kNone, doc};
}
constexpr Entry residual(Site s, const char* name, Gate g, const char* doc) {
  return {s, kResidual, name, g, "s", kSim, doc, "predicted_s measured_s"};
}

const Entry kEntries[] = {
    stage(kClassify, "planner/classify", "Alg. 1 taxonomy decision"),
    log(kClassify, "planner/classify", kDebug, "taxonomy decision and path",
        "fused_shape decision path"),
    stage(kSelectKernel, "planner/select_kernel", "model-driven selection"),
    log(kSelectKernel, "planner/select_kernel", kDebug, "selected kernel",
        "schema predicted_us candidates_considered"),
    counter(kSelectKernel, "planner.selections", "select_kernel calls"),
    counter(kSelectKernel, "planner.candidates_considered",
            "candidates scored by the model", "candidates_considered"),
    counter(kSelectKernel, "planner.schema.<schema>", "selections per schema"),
    stage(kSliceSearchOa, "planner/slice_search.oa", "Alg. 5 slice search"),
    instant(kOaCandidate, "planner/oa_candidate", "one scored OA slice"),
    stage(kSliceSearchFviSmall, "planner/slice_search.fvi_small", "Alg. 6"),
    instant(kFviSmallCandidate, "planner/fvi_small_candidate", "one blocking"),
    stage(kSliceSearchOd, "planner/slice_search.od", "Alg. 3 slice search"),
    instant(kOdCandidate, "planner/od_candidate", "one scored OD slice"),

    stage(kMakePlan, "planner/make_plan", "plan construction"),
    log(kMakePlan, "planner/plan.created", kInfo, "a plan was built"),
    counter(kMakePlan, "plan.created", "plans built by make_plan"),
    histogram(kMakePlan, "plan.wall_ms", "ms", kWall, "make_plan wall time",
              "plan_wall_ms", kMs),
    stage(kUploadOffsets, "planner/plan.upload_offsets", "Alg. 4 upload"),
    stage(kSpecialize, "planner/plan.specialize", "stride-program compile"),
    log(kSpecialized, "planner/plan.specialized", kInfo, "specialization tier"),
    always(kSpecialized, "plan.specialization_tier.<tier>", "plans per tier"),
    always(kSpecReject, "plan.spec.reject.<reason>", "plans left generic"),
    always(kPlanExecution, "plan.executions", "plan executions"),
    histogram(kPlanExecution, "plan.exec_us", "us", kSim,
              "kernel time per execution", "exec_us", kUs),
    residual(kPlanExecution, "model_accuracy/<schema>", kAlways, "model fit"),
    log(kFallback, "robustness/fallback", kWarn, "one fallback-ladder step"),
    always(kFallback, "robustness.fallback.<stage>.<to>", "ladder steps"),
    instant(kFallback, "robustness/robustness.fallback", "one ladder step"),
    always(kRecovered, "robustness.recovered", "fallbacks that completed"),
    log(kStatusError, "robustness/status.error", kError, "a try_* failure"),

    counter(kCacheHit, "plan_cache.hit", "plan-cache hits"),
    log(kCacheHit, "plan_cache/hit", kDebug, "a cached plan was reused"),
    counter(kCacheMiss, "plan_cache.miss", "plan-cache misses"),
    log(kCacheMiss, "plan_cache/miss", kDebug, "a plan was built to cache"),
    counter(kCacheFailure, "plan_cache.failure", "failed plan builds"),
    log(kCacheFailure, "plan_cache/failure", kWarn, "a plan build failed"),
    counter(kCacheUncacheable, "plan_cache.uncacheable", "plans not kept"),
    log(kCacheUncacheable, "plan_cache/uncacheable", kInfo, "plan not kept"),
    counter(kCacheEvict, "plan_cache.eviction", "LRU evictions"),
    log(kCacheEvict, "plan_cache/evict", kDebug, "an LRU eviction"),
    log(kPlanSave, "plan_io/save", kDebug, "a plan was serialized"),
    log(kPlanLoad, "plan_io/load", kDebug, "a plan file was parsed"),

    counter(kBatchFused, "plan.batch.fused_launches", "fused run_batched"),
    counter(kBatchFused, "plan.batch.members", "batch members", "members"),
    histogram(kBatchFused, "plan.batch.members_per_fuse", "count", kNone,
              "members per fused launch", "members", kMembers),
    log(kBatchFused, "plan/plan.batched", kDebug, "one run_batched call"),
    counter(kBatchLooped, "plan.batch.loop_launches", "looped run_batched"),
    counter(kBatchLooped, "plan.batch.members", "batch members", "members"),
    log(kBatchLooped, "plan/plan.batched", kDebug, "one run_batched call"),
    always(kBatchFallback, "plan.batch.fallback", "fused batches re-looped"),
    log(kBatchFallback, "plan/plan.batch.fallback", kWarn, "batch re-looped"),
    always(kBatchMemberFailed, "plan.batch.member_failure", "mid-loop fails"),
    note(kBatchMemberFailed, "plan/plan.batch.member_failed", "failed member"),

    stage(kLaunch, "sim/launch:<kernel>", "one simulated launch",
          "gld_transactions gst_transactions smem_load_ops smem_store_ops "
          "smem_bank_conflicts tex_transactions tex_misses special_ops "
          "fma_ops grid_blocks block_threads shared_bytes_per_block barriers "
          "payload_bytes dram_transactions coalescing_efficiency "
          "simulated_time_us occupancy waves dram_us smem_us alu_us tex_us "
          "mode"),
    log(kLaunch, "sim/launch", kDebug, "one simulated launch",
        "kernel grid_blocks block_threads simulated_us"),
    counter(kLaunch, "sim.launches", "simulated launches"),
    counter(kLaunch, "sim.blocks", "thread blocks launched", "grid_blocks"),
    counter(kLaunch, "sim.dram_transactions", "DRAM transactions",
            "dram_transactions"),
    bytes(kLaunch, "sim.payload_bytes", "useful bytes moved", "payload_bytes"),
    counter(kLaunch, "sim.smem_bank_conflicts", "shared-memory bank conflicts",
            "smem_bank_conflicts"),
    gauge(kLaunch, kGaugeSum, "sim.kernel_time_s", "s", kSim,
          "total kernel time", "time_s"),
    histogram(kLaunch, "sim.launch_us", "us", kSim, "kernel time per launch",
              "simulated_us", kUs),
    counter(kFaultInjected, "robustness.fault.injected.<site>", "faults fired"),
    log(kFaultInjected, "faults/injected", kWarn, "an injected fault fired"),

    counter(kSubmitted, "service.submitted", "requests entering admission"),
    counter(kAdmitted, "service.admitted", "requests queued"),
    counter(kServed, "service.served", "requests served"),
    histogram(kServed, "service.exec_us", "us", kSim,
              "kernel time per served request", "exec_us", kServiceUs),
    counter(kShedQueueFull, "service.shed.queue_full", "shed: queue full"),
    counter(kShedQuota, "service.shed.quota", "shed: tenant over quota"),
    counter(kExpiredAdmission, "service.expired.admission", "past deadline"),
    counter(kExpiredQueue, "service.expired.queue", "expired while queued"),
    counter(kExpiredExec, "service.expired.exec", "expired while executing"),
    counter(kFailed, "service.failed", "classified failures after retries"),
    counter(kRetry, "service.retries", "execution re-attempts"),
    log(kRetry, "service/retry", kInfo, "a request retries"),
    counter(kHeuristicForced, "service.heuristic_forced", "heuristic planning"),
    counter(kSharded, "service.sharded", "requests served by the fleet"),
    counter(kCoalesceFused, "service.coalesce.fused", "fused group launches"),
    histogram(kCoalesceFused, "service.coalesce.members", "count", kNone,
              "members per fused group", "members", kMembers),
    counter(kWindowHit, "service.coalesce.window_hit", "windows that grew"),
    counter(kWindowMiss, "service.coalesce.window_miss", "windows that lapsed"),
    always(kCoalesceFallback, "service.coalesce.fallback", "groups re-run"),
    gauge(kQueueDepth, kGauge, "service.queue_depth", "count", kNone,
          "bounded-queue occupancy", "depth"),
    histogram(kLatency, "service.latency_us", "us", kWall,
              "submit to terminal latency", "latency_us", kServiceUs),
    histogram(kQueueWait, "service.queue_wait_us", "us", kWall,
              "submit to dequeue wait", "queue_wait_us", kServiceUs),
    log(kRequestServed, "service/request", kDebug, "a request was served"),
    log(kRequestUnserved, "service/request", kWarn, "a request not served"),

    stage(kShardRun, "shard/shard.run", "one sharded run"),
    counter(kShardRunDone, "shard.runs", "sharded runs completed"),
    counter(kShardRunDone, "shard.shards", "shards executed", "shards"),
    bytes(kShardRunDone, "shard.transfer_bytes", "interconnect bytes",
          "transfer_bytes"),
    gauge(kShardRunDone, kGauge, "shard.makespan_s", "s", kSim,
          "last run's fleet makespan", "makespan_s"),
    log(kShardRunDone, "shard/run", kInfo, "a sharded run completed",
        "schema policy shards devices axis_out_pos counters_exact "
        "makespan_us"),
    always(kShardFailover, "shard.failovers", "shards failed over"),
    always(kShardFailure, "shard.failures", "sharded runs failed"),

    stage(kTtgtPlan, "ttgt/ttgt.plan", "TTGT layout planning"),
    counter(kTtgtPlan, "ttgt.plans", "TTGT contractions planned"),
    counter(kTtgtPlan, "ttgt.chains_evaluated", "layout chains scored",
            "chains_evaluated"),
    instant(kTtgtChain, "ttgt/ttgt_chain", "one scored layout chain"),
    stage(kTtgtExecute, "ttgt/ttgt.execute", "TTGT execution",
          "transpose_us gemm_us total_us predicted_total_us"),
    counter(kTtgtExecute, "ttgt.executions", "TTGT contractions executed"),
    residual(kTtgtExecute, "model_accuracy/TTGT", kCounters,
             "prediction vs contraction time"),

    always(kTraceDropped, "trace.dropped_events", "trace events dropped"),
    always(kFlightDump, "flight.dumps", "post-mortem files written"),
    note(kFlightTrigger, "flight/trigger", "what triggered a post-mortem"),
};

}  // namespace

std::span<const Entry> catalogue() { return kEntries; }

std::span<const Entry> entries_of(Site site) {
  static const auto groups = [] {
    std::array<std::span<const Entry>, static_cast<std::size_t>(kCount)> g{};
    const std::span<const Entry> all(kEntries);
    std::size_t i = 0;
    for (std::size_t s = 0; s < g.size(); ++s) {
      const std::size_t first = i;
      while (i < all.size() && static_cast<std::size_t>(all[i].site) == s) ++i;
      g[s] = all.subspan(first, i - first);
    }
    TTLG_CHECK(i == all.size(), "catalogue entries must follow Site order");
    return g;
  }();
  return groups[static_cast<std::size_t>(site)];
}

}  // namespace ttlg::telemetry
