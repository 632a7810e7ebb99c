// service-open-loop, measured only in the traced run: one generator thread
// submits small-tensor requests to a started Server on a Poisson schedule.
// Requests come from a pool of 32 problems (under the plan-cache
// capacity); some arrive as bursts of one problem, which the coalescer can
// fuse, the rest singly. Kernels are tiny, so admission, the queue, the
// coalescer, the plan cache and fan-out dominate. Each request is timed
// from its scheduled send time. BENCHMARK.json does not list it as a
// workload (perfbench/README.md gives the reason).
#include <algorithm>
#include <cmath>
#include <future>
#include <memory>
#include <set>
#include <thread>

#include "common/rng.hpp"
#include "layers.hpp"
#include "service/server.hpp"

namespace perfbench {
namespace {

namespace svc = ttlg::service;

constexpr int kPoolSize = 32;
constexpr std::uint64_t kPoolShapeStream = 0x5e71ce;
constexpr std::size_t kQueueCapacity = 4096;
constexpr double kRate = 10000;          ///< offered req/s
constexpr int kWindowMinRequests = 1000;
constexpr double kWindowSeconds = 0.1;
constexpr int kTracedWindows = 10;       ///< traced windows, and as many untraced
constexpr double kBurstProb = 0.25;      ///< share of arrival events that are bursts
constexpr int kBurstMax = 8;             ///< bursts carry 2..kBurstMax requests
constexpr std::int64_t kSpinUs = 2000;   ///< generator spins this close to a send

struct PoolItem {
  Case c;
  std::shared_ptr<const std::vector<double>> input;
  std::vector<double> ref;
};

/// The pool: two problems for every (rank, volume) pair, with extents that
/// multiply to about that volume and a non-identity permutation. The
/// shapes are drawn from a fixed stream so that seeds change the data and
/// the request schedule, not the mix.
std::vector<PoolItem> make_pool(std::uint64_t seed) {
  constexpr ttlg::Index kRanks[] = {2, 3, 4, 5};
  constexpr ttlg::Index kVolumes[] = {256, 512, 1024, 2048};
  ttlg::Rng rng(kPoolShapeStream);
  std::vector<PoolItem> pool;
  std::set<std::string> seen;
  for (int copy = 0; copy < kPoolSize / 16; ++copy) {
    for (const ttlg::Index rank : kRanks) {
      for (const ttlg::Index volume : kVolumes) {
        for (;;) {
          ttlg::Extents e;
          ttlg::Index v = 1;
          for (ttlg::Index d = 0; d + 1 < rank; ++d) {
            e.push_back(static_cast<ttlg::Index>(rng.uniform(2, 16)));
            v *= e.back();
          }
          const ttlg::Index last = (volume + v / 2) / v;
          if (last < 2) continue;
          e.push_back(last);
          std::vector<ttlg::Index> p(static_cast<std::size_t>(rank));
          for (ttlg::Index d = 0; d < rank; ++d) p[static_cast<std::size_t>(d)] = d;
          for (std::size_t d = p.size() - 1; d > 0; --d)
            std::swap(p[d], p[rng.uniform(0, d)]);
          PoolItem it{{ttlg::Shape(e), ttlg::Permutation(p), 8}, nullptr, {}};
          if (it.c.perm.is_identity() || !seen.insert(it.c.label()).second) continue;
          const ttlg::Index n = it.c.volume();
          auto in = std::make_shared<std::vector<double>>(static_cast<std::size_t>(n));
          fill_input(in->data(), n, seed + pool.size());
          it.ref.resize(in->size());
          ttlg::host_transpose(std::span<const double>(*in), std::span<double>(it.ref),
                               it.c.shape, it.c.perm);
          it.input = std::move(in);
          pool.push_back(std::move(it));
          break;
        }
      }
    }
  }
  return pool;
}

struct Arrival {
  std::int64_t t_us;  ///< scheduled send time from phase start
  int item;
};

/// Poisson arrival events at rate / mean-burst-size; each event is one
/// request or a burst of identical ones sent back to back.
std::vector<Arrival> schedule(double rate, int requests, ttlg::Rng& rng) {
  const double mean_burst = 1.0 + kBurstProb * (kBurstMax / 2.0);
  const double event_rate = rate / mean_burst;
  std::vector<Arrival> out;
  double t = 0;
  while (static_cast<int>(out.size()) < requests) {
    t += -std::log(1.0 - rng.uniform01()) / event_rate * 1e6;
    const int item = static_cast<int>(rng.uniform(0, kPoolSize - 1));
    const int n = rng.uniform01() < kBurstProb
                      ? static_cast<int>(rng.uniform(2, kBurstMax))
                      : 1;
    for (int k = 0; k < n; ++k)
      out.push_back({static_cast<std::int64_t>(t), item});
  }
  out.resize(static_cast<std::size_t>(requests));
  return out;
}

struct PhaseResult {
  std::vector<double> latency_us, queue_us, service_us, lag_us;
  std::int64_t served = 0, shed = 0, expired = 0, failed = 0, mismatched = 0;
  std::int64_t coalesced = 0, batch_members = 0;
};

/// Sends `arrivals` to the server on schedule from this thread, then
/// resolves every future and checks every output. Futures are collected
/// after the last send, not concurrently, so the client adds no thread
/// that competes with the server's workers while the window runs.
PhaseResult run_phase(svc::Server& server, const std::vector<PoolItem>& pool,
                      const std::vector<Arrival>& arrivals, SpanRecorder& rec) {
  struct Sent {
    std::future<svc::Response> fut;
    int item;
    std::int64_t lag_us;
    std::int64_t submit_ns;
  };
  PhaseResult res;
  std::vector<Sent> sent;
  sent.reserve(arrivals.size());

  svc::Clock& clock = server.clock();
  const std::int64_t start_us = clock.now_us() + 1000;
  for (const Arrival& a : arrivals) {
    const std::int64_t due = start_us + a.t_us;
    // Sleep through long gaps only: a sleep can overshoot by a millisecond
    // or more, so the last stretch before a send is a spin.
    for (std::int64_t now = clock.now_us(); now < due; now = clock.now_us()) {
      if (due - now > kSpinUs)
        std::this_thread::sleep_for(std::chrono::microseconds(due - now - kSpinUs));
    }
    svc::Request req;
    req.tenant = "bench";
    const PoolItem& it = pool[static_cast<std::size_t>(a.item)];
    req.shape = it.c.shape;
    req.perm = it.c.perm;
    req.input = it.input;
    const std::int64_t submit_ns = now_ns();
    const std::int64_t lag = clock.now_us() - due;
    {
      Scope s(rec, "server.submit");
      sent.push_back({server.submit(std::move(req)), a.item, lag, submit_ns});
    }
    res.lag_us.push_back(static_cast<double>(lag));
  }

  for (Sent& s : sent) {
    const svc::Response r = s.fut.get();
    // Resolution time on the host clock: submit plus the server's own
    // submit-to-terminal latency.
    rec.record("server.submit_to_resolved", s.submit_ns,
               s.submit_ns + r.latency_us * 1000);
    switch (r.outcome) {
      case svc::Outcome::kServed: {
        ++res.served;
        const PoolItem& it = pool[static_cast<std::size_t>(s.item)];
        if (r.output.size() != it.ref.size() ||
            std::memcmp(r.output.data(), it.ref.data(),
                        it.ref.size() * sizeof(double)) != 0)
          ++res.mismatched;
        res.latency_us.push_back(static_cast<double>(s.lag_us + r.latency_us));
        res.queue_us.push_back(static_cast<double>(r.queue_wait_us));
        res.service_us.push_back(static_cast<double>(r.latency_us - r.queue_wait_us));
        if (r.coalesced) {
          ++res.coalesced;
          res.batch_members += r.batch_members;
        }
        break;
      }
      case svc::Outcome::kShedQueueFull:
      case svc::Outcome::kShedQuota:
        ++res.shed;
        break;
      case svc::Outcome::kExpired:
        ++res.expired;
        break;
      case svc::Outcome::kFailed:
        ++res.failed;
        break;
    }
  }
  return res;
}

svc::ServerConfig server_config(const Options& opt) {
  svc::ServerConfig cfg;
  cfg.workers = opt.service_workers;
  // Deep enough that a host stall of some milliseconds queues instead of
  // shedding.
  cfg.queue_capacity = kQueueCapacity;
  cfg.plan.elem_size = 8;
  cfg.plan.num_threads = 1;
  return cfg;
}

/// A started server whose plan cache holds every pool problem.
std::unique_ptr<svc::Server> warm_server(ttlg::sim::Device& dev,
                                         const Options& opt,
                                         const std::vector<PoolItem>& pool,
                                         Report& rep) {
  auto server = std::make_unique<svc::Server>(dev, server_config(opt));
  server->start();
  std::vector<std::future<svc::Response>> futs;
  for (const PoolItem& it : pool) {
    svc::Request req;
    req.tenant = "bench";
    req.shape = it.c.shape;
    req.perm = it.c.perm;
    req.input = it.input;
    futs.push_back(server->submit(std::move(req)));
  }
  for (std::size_t i = 0; i < futs.size(); ++i) {
    const svc::Response r = futs[i].get();
    rep.check(r.served() && r.output == pool[i].ref,
              "warm-up request not served correctly: " + pool[i].c.label());
  }
  return server;
}

/// Every request is an attempted operation. Failed executions and wrong
/// outputs fail it; sheds and expiries are reported as svc.shed_frac and
/// svc.expired_frac instead.
void count_attempts(const PhaseResult& r, Report& rep) {
  for (std::int64_t i = 0; i < r.served - r.mismatched; ++i) rep.attempt(true);
  for (std::int64_t i = 0; i < r.failed + r.mismatched; ++i)
    rep.attempt(false, "request failed or mismatched");
}

/// Requests per measurement window at `rate`: at least kWindowMinRequests
/// (so a p99 has ten samples beyond it) and at least kWindowSeconds long.
int window_requests(double rate) {
  return std::max(kWindowMinRequests, static_cast<int>(rate * kWindowSeconds));
}

}  // namespace

void run_service(const Options& opt, Report& rep, SpanRecorder& rec) {
  const std::vector<PoolItem> pool = make_pool(opt.seed);
  rep.config("service.pool", std::to_string(pool.size()));
  rep.config("service.workers", std::to_string(opt.service_workers));
  rep.config("service.device_threads", std::to_string(kDeviceThreads));
  rep.config("service.client_threads", "1 (generator; responses collected after each window)");
  rep.config("service.rate_per_s", std::to_string(kRate));

  ttlg::sim::Device dev;
  dev.set_num_threads(kDeviceThreads);
  const std::unique_ptr<svc::Server> server = warm_server(dev, opt, pool, rep);
  const auto cache0 = server->cache().stats();
  ttlg::Rng rng(opt.seed ^ 0xa11ce5ull);

  // Windows alternately untraced and traced, so both see the same host
  // conditions. The rate keeps the pass under capacity on a busy host.
  SpanRecorder off(false);
  PhaseResult traced;
  std::vector<double> plain_p50, traced_p50;
  for (int w = 0; w < 2 * kTracedWindows; ++w) {
    const bool with_spans = w % 2 == 1;
    const PhaseResult r = run_phase(
        *server, pool, schedule(kRate, window_requests(kRate), rng),
        with_spans ? rec : off);
    count_attempts(r, rep);
    (with_spans ? traced_p50 : plain_p50).push_back(quantile(r.latency_us, 0.5));
    if (!with_spans) continue;
    for (auto v : {&PhaseResult::latency_us, &PhaseResult::queue_us,
                    &PhaseResult::service_us, &PhaseResult::lag_us})
      (traced.*v).insert((traced.*v).end(), (r.*v).begin(), (r.*v).end());
    traced.served += r.served;
    traced.coalesced += r.coalesced;
    traced.batch_members += r.batch_members;
  }
  const svc::Server::Counts n = server->counts();
  const auto cache = server->cache().stats();
  server->stop();

  const double submitted = static_cast<double>(n.submitted);
  rep.metric("svc.queue_wait_us_p50", quantile(traced.queue_us, 0.5), "us", "wall");
  rep.metric("svc.queue_wait_us_p99", quantile(traced.queue_us, 0.99), "us", "wall");
  rep.metric("svc.service_us_p50", quantile(traced.service_us, 0.5), "us", "wall");
  rep.metric("svc.service_us_p99", quantile(traced.service_us, 0.99), "us", "wall");
  rep.metric("svc.shed_frac",
             static_cast<double>(n.shed_queue_full + n.shed_quota) / submitted,
             "ratio", "count");
  rep.metric("svc.expired_frac",
             static_cast<double>(n.expired_admission + n.expired_queue +
                                 n.expired_exec) /
                 submitted,
             "ratio", "count");
  rep.metric("svc.retries_per_req",
             static_cast<double>(n.retries) / static_cast<double>(n.served),
             "ratio", "count");
  rep.metric("svc.gen_lag_us_p99", quantile(traced.lag_us, 0.99), "us", "wall");
  rep.metric("svc.coalesced_frac",
             static_cast<double>(traced.coalesced) / static_cast<double>(traced.served),
             "ratio", "count");
  rep.metric("svc.members_per_launch",
             traced.coalesced ? static_cast<double>(traced.batch_members) /
                                    static_cast<double>(traced.coalesced)
                              : 1.0,
             "count", "count");
  const double hits = static_cast<double>(cache.hits - cache0.hits);
  const double misses = static_cast<double>(cache.misses - cache0.misses);
  rep.metric("cache.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 1.0,
             "ratio", "count");
  rep.metric("cache.misses", static_cast<double>(cache.misses), "count", "count");
  rep.metric("cache.evictions", static_cast<double>(cache.evictions), "count",
             "count");
  rep.metric("trace.overhead_frac.service-open-loop",
             median(traced_p50) / median(plain_p50) - 1.0,
             "ratio", "wall");
}

}  // namespace perfbench
