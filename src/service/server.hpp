// The overload-hardened transpose service. A Server owns a bounded
// request queue, a per-tenant quota manager, a shared PlanCache and a
// set of workers drained from the process-wide sim::ThreadPool; every
// submitted Request terminates with a classified Response:
//
//   submit ──deadline?──quota?──queue?──► queued ──► worker:
//     coalesce compatible backlog (deadline-ordered, bounded window)
//     ──► dequeue-deadline? ──► plan (cache; measured below the
//     high-watermark, heuristic above it) ──► execute under a
//     ScopedDeadline — one fused batched launch for a coalesced group,
//     with per-member fan-out; bounded deterministic-backoff retry on
//     retryable failures ──► served | expired | failed
//
// Shed and expired requests resolve their futures immediately at
// admission — rejection is cheap and never touches the planner. All
// outcomes land in the service.* metrics, the structured event log and
// (for failures) the flight-recorder post-mortem path.
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/measure_plan.hpp"
#include "core/plan_cache.hpp"
#include "gpusim/device.hpp"
#include "service/backoff.hpp"
#include "service/bounded_queue.hpp"
#include "service/clock.hpp"
#include "service/quota.hpp"
#include "service/request.hpp"

namespace ttlg::shard {
class Fleet;
}  // namespace ttlg::shard

namespace ttlg::service {

struct ServerConfig {
  /// Optional multi-device scale-out: requests whose volume reaches
  /// shard_min_volume are routed through a ShardedExecutor over this
  /// fleet instead of the single serving device (src/shard/,
  /// docs/sharding.md). The fleet must outlive the Server; nullptr
  /// keeps every request on the serving device.
  shard::Fleet* fleet = nullptr;
  Index shard_min_volume = Index{1} << 20;
  int workers = 4;
  std::size_t queue_capacity = 256;
  /// Queue depth above which admission forces heuristic-only planning
  /// (make_plan instead of make_plan_measured) to protect latency.
  /// 0 = auto: 3/4 of queue_capacity.
  std::size_t high_watermark = 0;
  /// Plan cache misses use measurement-based planning when the service
  /// is below the watermark AND the request's deadline leaves at least
  /// measured_min_headroom_us. Off by default: measurement is the
  /// throughput-optimal choice only for long-lived repeated shapes.
  bool measured_planning = false;
  std::int64_t measured_min_headroom_us = 10000;
  std::size_t plan_cache_capacity = 64;
  QuotaConfig quota;
  BackoffPolicy backoff;
  PlanOptions plan;    ///< planner knobs shared by all requests
  /// Server-side request coalescing: a worker that dequeues a request
  /// scans the backlog for compatible ones — same shape, permutation
  /// and alpha/beta (elem width and PlanOptions are server-wide, so
  /// compatible requests share one cached plan) — and serves up to
  /// max_batch of them through ONE fused batched launch
  /// (Plan::execute_batched), fanning per-member Responses back out.
  /// Member selection is deadline-ordered (BoundedQueue::
  /// extract_compatible); any fused-path failure re-processes every
  /// member individually, so a failing member fails only its request.
  struct CoalesceConfig {
    bool enabled = true;
    /// Largest fused batch, leader included.
    int max_batch = 64;
    /// How long a leader may hold the worker waiting for more
    /// compatible arrivals (service-clock µs). 0 (default) fuses only
    /// what is already queued — zero added latency. The window closes
    /// early when any participant's deadline headroom stops covering
    /// the remaining wait with margin.
    std::int64_t window_us = 0;
    /// Poll interval while the window is open.
    std::int64_t window_poll_us = 50;
  };
  CoalesceConfig coalesce;
  /// Time source for deadlines, quota refill and backoff sleeps.
  /// nullptr = SteadyClock::global(). Must outlive the Server.
  Clock* clock = nullptr;
};

class Server {
 public:
  Server(sim::Device& dev, ServerConfig cfg);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Launch the workers. Requests may be submitted before start();
  /// they queue up (within capacity) until workers exist.
  void start();

  /// Close admission, drain the backlog, join the workers. Every
  /// admitted request's future resolves before stop() returns.
  /// Idempotent; the destructor calls it.
  void stop();

  /// Admission control. Always returns a valid future: rejections
  /// (expired deadline, quota, full queue) resolve immediately with a
  /// classified Response and never touch the planner.
  std::future<Response> submit(Request req);

  /// Exact outcome accounting (every submit lands in exactly one
  /// terminal bucket; the chaos soak checks the sum).
  struct Counts {
    std::int64_t submitted = 0;
    std::int64_t admitted = 0;
    std::int64_t served = 0;
    std::int64_t shed_queue_full = 0;
    std::int64_t shed_quota = 0;
    std::int64_t expired_admission = 0;
    std::int64_t expired_queue = 0;
    std::int64_t expired_exec = 0;
    std::int64_t failed = 0;
    std::int64_t retries = 0;           ///< execution re-attempts
    std::int64_t heuristic_forced = 0;  ///< measured planning suppressed
    std::int64_t coalesced_launches = 0;  ///< fused multi-request launches
    std::int64_t coalesced_members = 0;   ///< requests served fused (>=2 each)
    std::int64_t terminal() const {
      return served + shed_queue_full + shed_quota + expired_admission +
             expired_queue + expired_exec + failed;
    }
  };
  Counts counts() const;

  const PlanCache& cache() const { return cache_; }
  std::size_t queue_depth() const { return queue_.size(); }
  std::size_t high_watermark() const { return watermark_; }
  Clock& clock() const { return clock_; }

 private:
  struct Pending {
    std::promise<Response> promise;
    std::int64_t submit_us = 0;
  };

  void worker_loop();
  /// Serve one request with bounded, backed-off retries. A non-null
  /// `first_attempt` is the failure of an attempt already made for it
  /// (a retryable fused launch): it counts as attempt 1, and the loop
  /// continues from its retry.
  void process(Request req, const Status* first_attempt = nullptr);
  /// One plan-and-execute attempt (fleet route for large requests);
  /// fills `res` on success.
  Status attempt_once(const Request& req, std::int64_t headroom_us,
                      Response& res);
  /// True when a failure with `st` at `attempt` earns another attempt.
  bool can_retry(const Status& st, int attempt) const;
  /// Coalescing stage of the drain loop: gather compatible queued
  /// requests behind `leader` (bounded window, deadline-ordered) and
  /// route the group through process_batch, or fall through to
  /// process() when nothing coalesced.
  void process_coalesced(Request leader);
  /// Serve 2+ compatible requests through one fused batched launch;
  /// per-member Responses fan back out. Any fused-path failure
  /// re-processes every member individually (classified per-request
  /// partial-failure semantics).
  void process_batch(std::vector<Request> reqs);
  /// An admission rejection, already resolved.
  std::future<Response> reject(const Request& req, Outcome outcome,
                               Status st, std::int64_t submit_us);
  void finish(const Request& req, Response res);
  std::shared_ptr<const Plan> resolve_plan(const Request& req,
                                           std::int64_t headroom_us,
                                           bool* was_hit);

  sim::Device& dev_;
  const ServerConfig cfg_;
  Clock& clock_;
  std::size_t watermark_;
  BoundedQueue queue_;
  QuotaManager quota_;
  PlanCache cache_;

  std::mutex pending_mu_;
  std::map<std::uint64_t, Pending> pending_;

  std::atomic<std::uint64_t> next_id_{1};
  std::thread drain_;                ///< runs the pool-backed workers
  std::vector<std::thread> fallback_workers_;  ///< pool unavailable
  std::mutex lifecycle_mu_;
  bool started_ = false;
  bool stopped_ = false;

  struct AtomicCounts {
    std::atomic<std::int64_t> submitted{0}, admitted{0}, served{0},
        shed_queue_full{0}, shed_quota{0}, expired_admission{0},
        expired_queue{0}, expired_exec{0}, failed{0}, retries{0},
        heuristic_forced{0}, coalesced_launches{0}, coalesced_members{0};
  };
  mutable AtomicCounts n_;
};

}  // namespace ttlg::service
