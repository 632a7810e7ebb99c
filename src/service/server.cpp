#include "service/server.hpp"

#include <algorithm>
#include <span>
#include <utility>

#include "common/deadline.hpp"
#include "core/plan.hpp"
#include "gpusim/thread_pool.hpp"
#include "shard/sharded_executor.hpp"
#include "telemetry/log.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"

namespace ttlg::service {
namespace {

void bump(const char* name, std::int64_t d = 1) {
  if (telemetry::counters_enabled())
    telemetry::MetricsRegistry::global().counter(name).inc(d);
}

void observe(const char* name, double v) {
  if (telemetry::counters_enabled())
    telemetry::MetricsRegistry::global()
        .histogram(name,
                   {100, 300, 1000, 3000, 10000, 30000, 100000, 300000, 1e6})
        .observe(v);
}

void set_queue_depth(std::size_t depth) {
  if (telemetry::counters_enabled())
    telemetry::MetricsRegistry::global()
        .gauge("service.queue_depth")
        .set(static_cast<double>(depth));
}

void log_terminal(const Request& req, const Response& res) {
  const telemetry::LogLevel lv = res.served() ? telemetry::LogLevel::kDebug
                                              : telemetry::LogLevel::kWarn;
  if (!telemetry::log_site_enabled(lv)) return;
  telemetry::LogEvent ev(lv, "service", "request");
  ev.field("id", static_cast<double>(req.id))
      .field("tenant", req.tenant)
      .field("priority", to_string(req.priority))
      .field("outcome", to_string(res.outcome))
      .field("attempts", static_cast<double>(res.attempts))
      .field("latency_us", static_cast<double>(res.latency_us));
  if (!res.status.is_ok()) ev.field("status", res.status.to_string());
  ev.detail(std::string("request ") + to_string(res.outcome) + " tenant=" +
            req.tenant);
}

/// Two requests may share one fused launch iff they resolve to the
/// same plan and epilogue: shape, permutation and alpha/beta must
/// match (elem width and PlanOptions are server-wide constants).
/// Priority and deadline intentionally do NOT gate compatibility —
/// the fused group adopts the earliest member deadline.
bool coalescible(const Request& a, const Request& b) {
  return a.shape == b.shape && a.perm == b.perm && a.alpha == b.alpha &&
         a.beta == b.beta;
}

}  // namespace

Server::Server(sim::Device& dev, ServerConfig cfg)
    : dev_(dev),
      cfg_(std::move(cfg)),
      clock_(cfg_.clock ? *cfg_.clock : SteadyClock::global()),
      watermark_(cfg_.high_watermark > 0 ? cfg_.high_watermark
                                         : cfg_.queue_capacity * 3 / 4),
      queue_(cfg_.queue_capacity),
      quota_(cfg_.quota, clock_),
      cache_(cfg_.plan_cache_capacity) {}

Server::~Server() { stop(); }

void Server::start() {
  std::lock_guard<std::mutex> lk(lifecycle_mu_);
  if (started_) return;
  started_ = true;
  const int workers = std::max(cfg_.workers, 1);
  // One drain thread tries to run the worker loops on the shared pool;
  // if the pool is busy (or we are nested inside it) the service gets
  // dedicated threads instead — it must never silently serialize.
  drain_ = std::thread([this, workers] {
    auto loop = [this](std::int64_t) { worker_loop(); };
    if (!sim::ThreadPool::global().try_run_indexed(workers, loop)) {
      std::vector<std::thread> own;
      own.reserve(static_cast<std::size_t>(workers));
      for (int i = 0; i < workers; ++i)
        own.emplace_back([this] { worker_loop(); });
      for (auto& t : own) t.join();
    }
  });
}

void Server::stop() {
  {
    std::lock_guard<std::mutex> lk(lifecycle_mu_);
    if (stopped_) return;
    stopped_ = true;
  }
  queue_.close();
  if (drain_.joinable()) drain_.join();
  // A server that was never started drains its own backlog here so
  // every admitted future still resolves.
  worker_loop();
}

std::future<Response> Server::submit(Request req) {
  req.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  const std::int64_t submit_us = clock_.now_us();
  n_.submitted.fetch_add(1, std::memory_order_relaxed);
  bump("service.submitted");

  // 1. Deadline already blown: classify without touching planner/queue.
  if (req.deadline_us != kNoDeadline && submit_us >= req.deadline_us) {
    n_.expired_admission.fetch_add(1, std::memory_order_relaxed);
    bump("service.expired.admission");
    std::promise<Response> p;
    auto f = p.get_future();
    p.set_value(reject(req, Outcome::kExpired,
                       Status::error(ErrorCode::kDeadlineExceeded,
                                     "deadline expired before admission"),
                       submit_us));
    return f;
  }

  // 2. Tenant over quota: shed with backpressure (retryable).
  if (!quota_.admit(req.tenant)) {
    n_.shed_quota.fetch_add(1, std::memory_order_relaxed);
    bump("service.shed.quota");
    std::promise<Response> p;
    auto f = p.get_future();
    p.set_value(reject(req, Outcome::kShedQuota,
                       Status::error(ErrorCode::kUnavailable,
                                     "tenant '" + req.tenant +
                                         "' over quota; back off and retry"),
                       submit_us));
    return f;
  }

  // 3. Bounded queue: register the promise BEFORE pushing (a worker may
  // complete the request before we return), roll back on a full queue.
  const std::uint64_t id = req.id;
  std::future<Response> f;
  {
    std::lock_guard<std::mutex> lk(pending_mu_);
    Pending& slot = pending_[id];
    slot.submit_us = submit_us;
    f = slot.promise.get_future();
  }
  if (!queue_.try_push(req)) {
    {
      std::lock_guard<std::mutex> lk(pending_mu_);
      pending_.erase(id);
    }
    n_.shed_queue_full.fetch_add(1, std::memory_order_relaxed);
    bump("service.shed.queue_full");
    std::promise<Response> p;
    auto rf = p.get_future();
    p.set_value(reject(req, Outcome::kShedQueueFull,
                       Status::error(ErrorCode::kUnavailable,
                                     "request queue full; back off and retry"),
                       submit_us));
    return rf;
  }
  n_.admitted.fetch_add(1, std::memory_order_relaxed);
  bump("service.admitted");
  set_queue_depth(queue_.size());
  return f;
}

Response Server::reject(const Request& req, Outcome outcome, Status st,
                        std::int64_t submit_us) {
  Response res;
  res.id = req.id;
  res.tenant = req.tenant;
  res.outcome = outcome;
  res.status = std::move(st);
  res.latency_us = clock_.now_us() - submit_us;
  log_terminal(req, res);
  return res;
}

void Server::finish(const Request& req, Response res) {
  std::promise<Response> promise;
  std::int64_t submit_us = 0;
  {
    std::lock_guard<std::mutex> lk(pending_mu_);
    auto it = pending_.find(req.id);
    TTLG_ASSERT(it != pending_.end(),
                "service invariant: admitted request has a pending slot");
    promise = std::move(it->second.promise);
    submit_us = it->second.submit_us;
    pending_.erase(it);
  }
  res.latency_us = clock_.now_us() - submit_us;
  observe("service.latency_us", static_cast<double>(res.latency_us));
  log_terminal(req, res);
  promise.set_value(std::move(res));
}

void Server::worker_loop() {
  while (auto req = queue_.pop()) {
    set_queue_depth(queue_.size());
    if (cfg_.coalesce.enabled && cfg_.coalesce.max_batch > 1)
      process_coalesced(std::move(*req));
    else
      process(std::move(*req));
  }
}

void Server::process_coalesced(Request leader) {
  // Shard-eligible requests keep their scale-OUT route: fusion is the
  // small-tensor launch-overhead fix, sharding the large-tensor one.
  if (cfg_.fleet != nullptr &&
      leader.shape.volume() >= cfg_.shard_min_volume) {
    process(std::move(leader));
    return;
  }
  const std::size_t want =
      static_cast<std::size_t>(cfg_.coalesce.max_batch) - 1;
  const auto pred = [&leader](const Request& r) {
    return coalescible(leader, r);
  };
  std::vector<Request> members = queue_.extract_compatible(pred, want);

  // Bounded coalesce window: hold the worker for more compatible
  // arrivals, but only while EVERY participant keeps deadline headroom
  // beyond the window's end (a coalescer must never expire a request
  // it is trying to amortize).
  if (cfg_.coalesce.window_us > 0 && members.size() < want) {
    const std::int64_t window_end =
        clock_.now_us() + cfg_.coalesce.window_us;
    const std::size_t before = members.size();
    for (;;) {
      if (members.size() >= want || clock_.now_us() >= window_end) break;
      std::int64_t earliest = leader.deadline_us;
      for (const Request& r : members)
        earliest = std::min(earliest, r.deadline_us);
      if (earliest != kNoDeadline &&
          earliest <= window_end + cfg_.coalesce.window_us)
        break;
      clock_.sleep_us(std::max<std::int64_t>(cfg_.coalesce.window_poll_us, 1));
      auto more = queue_.extract_compatible(pred, want - members.size());
      for (auto& r : more) members.push_back(std::move(r));
    }
    bump(members.size() > before ? "service.coalesce.window_hit"
                                 : "service.coalesce.window_miss");
  }

  if (members.empty()) {
    process(std::move(leader));
    return;
  }
  set_queue_depth(queue_.size());
  std::vector<Request> group;
  group.reserve(members.size() + 1);
  group.push_back(std::move(leader));
  for (auto& r : members) group.push_back(std::move(r));
  process_batch(std::move(group));
}

void Server::process_batch(std::vector<Request> reqs) {
  // Dequeue-time deadline triage, same rule as process(): a member that
  // died waiting finishes individually and drops out of the group.
  const std::int64_t dequeue_us = clock_.now_us();
  std::vector<Request> live;
  live.reserve(reqs.size());
  for (Request& req : reqs) {
    if (req.deadline_us != kNoDeadline && dequeue_us >= req.deadline_us) {
      n_.expired_queue.fetch_add(1, std::memory_order_relaxed);
      bump("service.expired.queue");
      Response res;
      res.id = req.id;
      res.tenant = req.tenant;
      res.outcome = Outcome::kExpired;
      res.status = Status::error(ErrorCode::kDeadlineExceeded,
                                 "deadline expired while queued");
      finish(req, std::move(res));
    } else {
      live.push_back(std::move(req));
    }
  }
  if (live.empty()) return;
  if (live.size() == 1) {
    process(std::move(live.front()));
    return;
  }

  // The fused launch runs under the TIGHTEST member deadline: one
  // launch serves all members, so the group must respect its most
  // urgent participant.
  std::int64_t earliest_us = kNoDeadline;
  for (const Request& r : live)
    earliest_us = std::min(earliest_us, r.deadline_us);
  Clock& clock = clock_;
  const DeadlineCheck check = [earliest_us, &clock] {
    return earliest_us != kNoDeadline && clock.now_us() >= earliest_us;
  };
  ScopedDeadline scoped(check);
  const std::int64_t headroom_us =
      earliest_us == kNoDeadline ? kNoDeadline : earliest_us - dequeue_us;

  Status st = Status::ok();
  bool cache_hit = false;
  ExecPath exec_path = ExecPath::kPlanned;
  std::vector<sim::LaunchResult> runs;
  std::vector<std::pair<sim::DeviceBuffer<double>, sim::DeviceBuffer<double>>>
      pairs;
  auto free_pairs = [&] {
    for (auto& [in, out] : pairs) {
      dev_.try_free(in);
      dev_.try_free(out);
    }
    pairs.clear();
  };
  try {
    const std::int64_t volume = live.front().shape.volume();
    for (const Request& r : live)
      TTLG_CHECK(r.input && static_cast<std::int64_t>(r.input->size()) ==
                                volume,
                 "request input must hold shape.volume() elements");
    std::shared_ptr<const Plan> plan =
        resolve_plan(live.front(), headroom_us, &cache_hit);
    pairs.reserve(live.size());
    for (const Request& r : live) {
      auto in = dev_.alloc_copy<double>(
          std::span<const double>(r.input->data(), r.input->size()));
      sim::DeviceBuffer<double> out;
      try {
        out = dev_.alloc<double>(volume);
      } catch (...) {
        dev_.try_free(in);
        throw;
      }
      pairs.emplace_back(in, out);
    }
    runs = plan->execute_batched<double>(
        std::span<const std::pair<sim::DeviceBuffer<double>,
                                  sim::DeviceBuffer<double>>>(pairs),
        live.front().alpha, live.front().beta);
    exec_path = plan->last_exec_path();
  } catch (const Error& e) {
    st = Status::from(e);
  }

  if (!st.is_ok()) {
    // Classified partial-failure semantics: the fused attempt is
    // all-or-nothing (no member output was published), so every member
    // re-runs individually through process() — each terminates with
    // its own classified status and a failing member fails only its
    // request. A retryable fused failure was every member's first
    // attempt, so each re-run is that member's counted retry; any other
    // failure re-runs each member in isolation from attempt 1. The
    // fused failure itself is a robustness-class event.
    free_pairs();
    telemetry::MetricsRegistry::global()
        .counter("service.coalesce.fallback")
        .inc();
    note_status_failure("service.process_batch", st);
    const Status* first_attempt = can_retry(st, 1) ? &st : nullptr;
    for (Request& r : live) process(std::move(r), first_attempt);
    return;
  }

  n_.coalesced_launches.fetch_add(1, std::memory_order_relaxed);
  n_.coalesced_members.fetch_add(static_cast<std::int64_t>(live.size()),
                                 std::memory_order_relaxed);
  bump("service.coalesce.fused");
  if (telemetry::counters_enabled())
    telemetry::MetricsRegistry::global()
        .histogram("service.coalesce.members", {2, 4, 8, 16, 32, 64, 128, 256})
        .observe(static_cast<double>(live.size()));
  for (std::size_t i = 0; i < live.size(); ++i) {
    const Request& req = live[i];
    Response res;
    res.id = req.id;
    res.tenant = req.tenant;
    res.queue_wait_us = 0;  // fixed up in finish-side lookup below
    {
      std::lock_guard<std::mutex> lk(pending_mu_);
      auto it = pending_.find(req.id);
      if (it != pending_.end())
        res.queue_wait_us = dequeue_us - it->second.submit_us;
    }
    observe("service.queue_wait_us", static_cast<double>(res.queue_wait_us));
    res.outcome = Outcome::kServed;
    res.status = Status::ok();
    res.output.assign(pairs[i].second.data(),
                      pairs[i].second.data() + pairs[i].second.size());
    res.exec_path = exec_path;
    res.plan_cache_hit = cache_hit;
    res.coalesced = true;
    res.batch_members = static_cast<int>(live.size());
    res.attempts = 1;
    res.sim_time_s = runs[i].time_s;
    observe("service.exec_us", runs[i].time_s * 1e6);
    n_.served.fetch_add(1, std::memory_order_relaxed);
    bump("service.served");
    finish(req, std::move(res));
  }
  free_pairs();
}

std::shared_ptr<const Plan> Server::resolve_plan(const Request& req,
                                                 std::int64_t headroom_us,
                                                 bool* was_hit) {
  const bool pressured = queue_.size() >= watermark_;
  const bool tight =
      req.deadline_us != kNoDeadline && headroom_us < cfg_.measured_min_headroom_us;
  const bool measured = cfg_.measured_planning && !pressured && !tight;
  if (cfg_.measured_planning && !measured) {
    n_.heuristic_forced.fetch_add(1, std::memory_order_relaxed);
    bump("service.heuristic_forced");
  }
  PlanBuilder builder = [measured](sim::Device& dev, const Shape& shape,
                                   const Permutation& perm,
                                   const PlanOptions& opts) {
    return measured ? make_plan_measured(dev, shape, perm, opts)
                    : make_plan(dev, shape, perm, opts);
  };
  PlanOptions opts = cfg_.plan;
  opts.elem_size = static_cast<int>(sizeof(double));
  return cache_.get_shared(dev_, req.shape, req.perm, opts, was_hit, builder);
}

bool Server::can_retry(const Status& st, int attempt) const {
  return attempt < 1 + std::max(cfg_.backoff.max_retries, 0) &&
         retryable(st.code()) && st.code() != ErrorCode::kUnsupported;
}

Status Server::attempt_once(const Request& req, std::int64_t headroom_us,
                            Response& res) {
  try {
    const std::int64_t volume = req.shape.volume();
    TTLG_CHECK(req.input && static_cast<std::int64_t>(req.input->size()) ==
                                volume,
               "request input must hold shape.volume() elements");
    if (cfg_.fleet != nullptr && volume >= cfg_.shard_min_volume) {
      // Scale-out route: the request is big enough to amortize the
      // cross-device transfers, so it fans out over the fleet
      // (sharded failover included) instead of the serving device.
      std::vector<double> out(req.input->size(), 0.0);
      shard::ShardOptions sopts;
      sopts.plan = cfg_.plan;
      shard::ShardedExecutor ex(*cfg_.fleet, sopts);
      auto run = ex.run<double>(
          req.shape, req.perm,
          std::span<const double>(req.input->data(), req.input->size()),
          std::span<double>(out.data(), out.size()), req.alpha, req.beta);
      if (run.has_value()) {
        res.output = std::move(out);
        res.sharded = true;
        res.sim_time_s = run->makespan_s;
        bump("service.sharded");
        observe("service.exec_us", run->makespan_s * 1e6);
      }
      return run.status();
    }
    bool hit = false;
    std::shared_ptr<const Plan> plan = resolve_plan(req, headroom_us, &hit);
    res.plan_cache_hit = hit;
    auto in = dev_.alloc_copy<double>(
        std::span<const double>(req.input->data(), req.input->size()));
    sim::DeviceBuffer<double> out;
    try {
      out = dev_.alloc<double>(volume);
    } catch (...) {
      dev_.try_free(in);
      throw;
    }
    auto exec = plan->try_execute<double>(in, out, req.alpha, req.beta);
    if (exec.has_value()) {
      res.output.assign(out.data(), out.data() + out.size());
      res.exec_path = plan->last_exec_path();
      res.sim_time_s = exec->time_s;
      observe("service.exec_us", exec->time_s * 1e6);
    }
    dev_.try_free(in);
    dev_.try_free(out);
    return exec.status();
  } catch (const Error& e) {
    // Classified failures outside try_execute (plan build, buffer
    // allocation) join the same retry/classify path.
    return Status::from(e);
  }
}

void Server::process(Request req, const Status* first_attempt) {
  std::int64_t submit_us = 0;
  {
    std::lock_guard<std::mutex> lk(pending_mu_);
    auto it = pending_.find(req.id);
    if (it != pending_.end()) submit_us = it->second.submit_us;
  }
  const std::int64_t dequeue_us = clock_.now_us();

  Response res;
  res.id = req.id;
  res.tenant = req.tenant;
  res.queue_wait_us = dequeue_us - submit_us;
  observe("service.queue_wait_us", static_cast<double>(res.queue_wait_us));

  // Dequeue-time deadline check: a request that died waiting must not
  // reach the planner.
  if (req.deadline_us != kNoDeadline && dequeue_us >= req.deadline_us) {
    n_.expired_queue.fetch_add(1, std::memory_order_relaxed);
    bump("service.expired.queue");
    res.outcome = Outcome::kExpired;
    res.status = Status::error(ErrorCode::kDeadlineExceeded,
                               "deadline expired while queued");
    finish(req, std::move(res));
    return;
  }

  // Deadline context for everything below: plan construction, the
  // execute-time degradation ladder, and our own retry loop all poll
  // this predicate (through common/deadline.hpp cancellation points).
  const std::int64_t deadline_us = req.deadline_us;
  Clock& clock = clock_;
  const DeadlineCheck check = [deadline_us, &clock] {
    return deadline_us != kNoDeadline && clock.now_us() >= deadline_us;
  };
  ScopedDeadline scoped(check);

  const std::int64_t headroom_us =
      deadline_us == kNoDeadline ? kNoDeadline : deadline_us - dequeue_us;

  auto classify = [&](const Status& st) {
    if (st.code() == ErrorCode::kDeadlineExceeded) {
      n_.expired_exec.fetch_add(1, std::memory_order_relaxed);
      bump("service.expired.exec");
      res.outcome = Outcome::kExpired;
    } else {
      n_.failed.fetch_add(1, std::memory_order_relaxed);
      bump("service.failed");
      res.outcome = Outcome::kFailed;
      note_status_failure("service.process", st);
    }
    res.status = st;
  };

  // Bounded retry: a fresh plan resolution + execution per attempt
  // (the failure may have been the plan build itself), with
  // deterministic backoff between retryable failures.
  for (int attempt = 1;; ++attempt) {
    res.attempts = attempt;
    const Status st = attempt == 1 && first_attempt != nullptr
                          ? *first_attempt
                          : attempt_once(req, headroom_us, res);
    if (st.is_ok()) {
      n_.served.fetch_add(1, std::memory_order_relaxed);
      bump("service.served");
      res.outcome = Outcome::kServed;
      res.status = Status::ok();
      break;
    }
    if (!can_retry(st, attempt)) {
      classify(st);
      break;
    }
    n_.retries.fetch_add(1, std::memory_order_relaxed);
    bump("service.retries");
    if (telemetry::log_site_enabled(telemetry::LogLevel::kInfo)) {
      telemetry::LogEvent ev(telemetry::LogLevel::kInfo, "service", "retry");
      ev.field("id", static_cast<double>(req.id))
          .field("attempt", static_cast<double>(attempt))
          .field("status", st.to_string());
    }
    clock_.sleep_us(backoff_us(cfg_.backoff, req.id, attempt));
    if (check()) {
      classify(Status::error(ErrorCode::kDeadlineExceeded,
                             "deadline expired during retry backoff"));
      break;
    }
  }
  finish(req, std::move(res));
}

Server::Counts Server::counts() const {
  Counts c;
  c.submitted = n_.submitted.load(std::memory_order_relaxed);
  c.admitted = n_.admitted.load(std::memory_order_relaxed);
  c.served = n_.served.load(std::memory_order_relaxed);
  c.shed_queue_full = n_.shed_queue_full.load(std::memory_order_relaxed);
  c.shed_quota = n_.shed_quota.load(std::memory_order_relaxed);
  c.expired_admission = n_.expired_admission.load(std::memory_order_relaxed);
  c.expired_queue = n_.expired_queue.load(std::memory_order_relaxed);
  c.expired_exec = n_.expired_exec.load(std::memory_order_relaxed);
  c.failed = n_.failed.load(std::memory_order_relaxed);
  c.retries = n_.retries.load(std::memory_order_relaxed);
  c.heuristic_forced = n_.heuristic_forced.load(std::memory_order_relaxed);
  c.coalesced_launches =
      n_.coalesced_launches.load(std::memory_order_relaxed);
  c.coalesced_members = n_.coalesced_members.load(std::memory_order_relaxed);
  return c;
}

}  // namespace ttlg::service
