// The telemetry catalogue: one table of every name the library emits —
// registry metrics, structured-log events, flight-recorder notes, trace
// stages and trace instants — grouped by the instrumentation Site that
// emits them. A site makes exactly one call (telemetry::event, or one
// telemetry::Stage); the catalogue decides which sinks that call reaches.
// docs/observability.md carries the same table, and a test keeps the two
// in sync.
//
// Names: metrics use their registry name; log events, notes, stages and
// instants are "component/name" (the log record's component and event,
// or the trace event's category and name); model-accuracy residuals are
// "model_accuracy/<report key>". A "<label>" part marks a
// family whose label is read from the event field of that key, e.g.
// planner.schema.<schema>.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>

namespace ttlg::telemetry {

/// One instrumentation site. A site may be called from several places
/// when they record the same fact.
enum class Site : std::uint8_t {
  kClassify, kSelectKernel, kSliceSearchOa, kOaCandidate,
  kSliceSearchFviSmall, kFviSmallCandidate, kSliceSearchOd, kOdCandidate,
  kMakePlan, kUploadOffsets, kSpecialize, kSpecialized, kSpecReject,
  kPlanExecution, kFallback, kRecovered, kStatusError,
  kCacheHit, kCacheMiss, kCacheFailure, kCacheUncacheable, kCacheEvict,
  kPlanSave, kPlanLoad,
  kBatchFused, kBatchLooped, kBatchFallback, kBatchMemberFailed,
  kLaunch, kFaultInjected,
  kSubmitted, kAdmitted, kServed, kShedQueueFull, kShedQuota,
  kExpiredAdmission, kExpiredQueue, kExpiredExec, kFailed, kRetry,
  kHeuristicForced, kSharded, kCoalesceFused, kWindowHit, kWindowMiss,
  kCoalesceFallback, kQueueDepth, kLatency, kQueueWait,
  kRequestServed, kRequestUnserved,
  kShardRun, kShardRunDone, kShardFailover, kShardFailure,
  kTtgtPlan, kTtgtChain, kTtgtExecute,
  kTraceDropped, kFlightDump, kFlightTrigger,
  kCount
};

enum class Kind : std::uint8_t {
  kCounter,
  kGauge,     ///< set to the field value
  kGaugeSum,  ///< gauge that accumulates the field value
  kHistogram,
  kLog,       ///< JSON-lines log record, mirrored into the flight ring
  kNote,      ///< flight-ring entry only
  kStage,     ///< trace span ('X') of a telemetry::Stage
  kInstant,   ///< trace instant ('i')
  kResidual,  ///< ModelAccuracy observation of predicted_s vs measured_s
};

enum class Clock : std::uint8_t { kNone, kWall, kSim };

/// What admits an entry: the telemetry level for metrics (kAlways: the
/// robustness class, counted even with telemetry off), the log level for
/// log and note entries, and the trace level for stages and instants.
enum class Gate : std::uint8_t {
  kCounters, kAlways, kDebug, kInfo, kWarn, kError, kTrace
};

struct Entry {
  Site site;
  Kind kind;
  const char* name;
  Gate gate;
  const char* unit;  ///< "" when the entry carries no single value
  Clock clock;
  const char* doc;
  /// Metrics: key of the field holding the value (nullptr: add 1).
  /// Other kinds: space-separated keys they take (nullptr: every field).
  const char* fields = nullptr;
  std::span<const double> bounds = {};  ///< histogram buckets

  /// Resolved registry handle and the registry generation it belongs
  /// to; re-resolved after MetricsRegistry::clear().
  mutable std::atomic<void*> handle{nullptr};
  mutable std::atomic<std::uint64_t> generation{0};
};

/// Every entry, grouped by site in Site order.
std::span<const Entry> catalogue();
/// The entries a site emits.
std::span<const Entry> entries_of(Site site);

}  // namespace ttlg::telemetry
