// Unit and edge-case battery for the overload-hardened transpose
// service: admission control, per-tenant quotas, deadline propagation,
// deterministic backoff, and the bounded-queue / token-bucket /
// backoff primitives in isolation (all on the seeded ManualClock, so
// every rejection and refill is exactly reproducible).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <memory>
#include <span>
#include <vector>

#include "gpusim/fault_injector.hpp"
#include "service/backoff.hpp"
#include "service/bounded_queue.hpp"
#include "service/loadgen.hpp"
#include "service/quota.hpp"
#include "service/server.hpp"
#include "shard/fleet.hpp"
#include "tensor/host_transpose.hpp"
#include "tensor/tensor.hpp"

namespace ttlg::service {
namespace {

Request make_request(const Shape& shape, const Permutation& perm,
                     std::shared_ptr<const std::vector<double>> input,
                     const std::string& tenant = "t0") {
  Request req;
  req.tenant = tenant;
  req.shape = shape;
  req.perm = perm;
  req.input = std::move(input);
  return req;
}

struct Fixture {
  Shape shape{Extents{16, 8, 4}};
  Permutation perm{std::vector<Index>{2, 0, 1}};
  std::shared_ptr<std::vector<double>> input;
  std::vector<double> expected;

  Fixture() {
    input = std::make_shared<std::vector<double>>(
        static_cast<std::size_t>(shape.volume()));
    for (std::size_t i = 0; i < input->size(); ++i)
      (*input)[i] = static_cast<double>(i) * 0.25;
    expected.resize(input->size());
    host_transpose(std::span<const double>(*input),
                   std::span<double>(expected), shape, perm);
  }

  Request request(const std::string& tenant = "t0") const {
    return make_request(shape, perm, input, tenant);
  }
};

// ---------------------------------------------------------------- backoff

TEST(Backoff, ReproducibleForFixedSeed) {
  BackoffPolicy policy;
  policy.base_us = 100;
  policy.cap_us = 10000;
  policy.seed = 7;
  for (int attempt = 1; attempt <= 5; ++attempt) {
    const auto a = backoff_us(policy, 42, attempt);
    const auto b = backoff_us(policy, 42, attempt);
    EXPECT_EQ(a, b) << "attempt " << attempt;
  }
}

TEST(Backoff, SlotGrowsExponentiallyAndSaturates) {
  BackoffPolicy policy;
  policy.base_us = 100;
  policy.cap_us = 1000;
  policy.seed = 3;
  // Slot for attempt k is base * 2^(k-1) clamped at cap; jitter adds at
  // most half a slot. Check the envelope, not the jitter draw.
  for (int attempt = 1; attempt <= 8; ++attempt) {
    const std::int64_t slot =
        std::min<std::int64_t>(100LL << (attempt - 1), 1000);
    const auto wait = backoff_us(policy, 9, attempt);
    EXPECT_GE(wait, slot);
    EXPECT_LE(wait, slot + slot / 2);
  }
  // Huge attempt numbers must not overflow past the cap.
  const auto wait = backoff_us(policy, 9, 100);
  EXPECT_GE(wait, 1000);
  EXPECT_LE(wait, 1500);
}

TEST(Backoff, JitterDecorrelatesRequests) {
  BackoffPolicy policy;
  policy.base_us = 1000;
  policy.cap_us = 100000;
  policy.seed = 5;
  // Different request ids should (overwhelmingly) draw different
  // jitter; equal draws for all five ids would mean no decorrelation.
  bool any_different = false;
  const auto first = backoff_us(policy, 0, 4);
  for (std::uint64_t id = 1; id < 5; ++id)
    any_different = any_different || backoff_us(policy, id, 4) != first;
  EXPECT_TRUE(any_different);
}

// ----------------------------------------------------------- bounded queue

TEST(BoundedQueue, ZeroCapacityAdmitsNothing) {
  BoundedQueue q(0);
  Request r;
  EXPECT_FALSE(q.try_push(r));
  EXPECT_EQ(q.size(), 0u);
  q.close();
  EXPECT_FALSE(q.pop().has_value());
}

TEST(BoundedQueue, ShedsAtCapacityAndDrainsInPriorityOrder) {
  BoundedQueue q(3);
  for (int i = 0; i < 3; ++i) {
    Request r;
    r.id = static_cast<std::uint64_t>(i + 1);
    // ids 1,2,3 with priorities batch, normal, high.
    r.priority = static_cast<Priority>(2 - i);
    EXPECT_TRUE(q.try_push(r));
  }
  Request overflow;
  EXPECT_FALSE(q.try_push(overflow)) << "4th push must shed";
  q.close();
  // Drain order: high (id 3), normal (id 2), batch (id 1).
  EXPECT_EQ(q.pop()->id, 3u);
  EXPECT_EQ(q.pop()->id, 2u);
  EXPECT_EQ(q.pop()->id, 1u);
  EXPECT_FALSE(q.pop().has_value());
  EXPECT_FALSE(q.try_push(overflow)) << "closed queue admits nothing";
}

// ----------------------------------------------------------- token bucket

TEST(TokenBucket, DeterministicRefillUnderSeededClock) {
  ManualClock clock(0);
  // 10 tokens/s, burst 2: starts full, refills one token per 100ms.
  TokenBucket bucket(10.0, 2.0, clock.now_us());
  EXPECT_TRUE(bucket.try_acquire(clock.now_us()));
  EXPECT_TRUE(bucket.try_acquire(clock.now_us()));
  EXPECT_FALSE(bucket.try_acquire(clock.now_us())) << "burst exhausted";
  clock.advance_us(50000);  // +0.5 tokens: still short of 1
  EXPECT_FALSE(bucket.try_acquire(clock.now_us()));
  clock.advance_us(50000);  // exactly 1 token
  EXPECT_TRUE(bucket.try_acquire(clock.now_us()));
  EXPECT_FALSE(bucket.try_acquire(clock.now_us()));
  clock.advance_us(10000000);  // 100 tokens earned, clamped at burst 2
  EXPECT_TRUE(bucket.try_acquire(clock.now_us()));
  EXPECT_TRUE(bucket.try_acquire(clock.now_us()));
  EXPECT_FALSE(bucket.try_acquire(clock.now_us()));
}

TEST(QuotaManager, IsolatesTenants) {
  ManualClock clock(0);
  QuotaConfig cfg;
  cfg.rate_per_s = 1;
  cfg.burst = 1;
  QuotaManager quota(cfg, clock);
  EXPECT_TRUE(quota.admit("alice"));
  EXPECT_FALSE(quota.admit("alice")) << "alice's bucket is empty";
  EXPECT_TRUE(quota.admit("bob")) << "bob has his own bucket";
  clock.advance_us(1000000);
  EXPECT_TRUE(quota.admit("alice"));
}

TEST(QuotaManager, UnlimitedWhenRateIsZero) {
  ManualClock clock(0);
  QuotaManager quota(QuotaConfig{}, clock);
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(quota.admit("anyone"));
}

// ----------------------------------------------------------------- server

TEST(Server, ServesAndVerifiesBitIdenticalOutput) {
  Fixture fx;
  sim::Device dev;
  dev.set_num_threads(1);
  ServerConfig cfg;
  cfg.workers = 2;
  Server server(dev, cfg);
  server.start();
  auto fut = server.submit(fx.request());
  const Response res = fut.get();
  server.stop();
  EXPECT_EQ(res.outcome, Outcome::kServed);
  EXPECT_TRUE(res.status.is_ok());
  EXPECT_EQ(res.output, fx.expected);
  EXPECT_GE(res.attempts, 1);
  const auto counts = server.counts();
  EXPECT_EQ(counts.served, 1);
  EXPECT_EQ(counts.terminal(), counts.submitted);
}

TEST(Server, RoutesLargeRequestsThroughTheFleet) {
  // With a fleet configured, requests at or above shard_min_volume go
  // through the sharded executor (and say so in the response); smaller
  // ones stay on the serving device. Outputs match either way.
  Fixture fx;
  sim::Device dev;
  shard::Fleet fleet = shard::Fleet::homogeneous(3);
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.fleet = &fleet;
  cfg.shard_min_volume = fx.shape.volume();  // fixture exactly qualifies
  Server server(dev, cfg);
  server.start();
  const Response big = server.submit(fx.request()).get();
  Request small_req = fx.request();
  small_req.shape = Shape(Extents{4, 4});
  small_req.perm = Permutation(std::vector<Index>{1, 0});
  small_req.input = std::make_shared<std::vector<double>>(16, 1.5);
  const Response small = server.submit(small_req).get();
  server.stop();
  EXPECT_EQ(big.outcome, Outcome::kServed);
  EXPECT_TRUE(big.sharded);
  EXPECT_EQ(big.output, fx.expected);
  EXPECT_EQ(small.outcome, Outcome::kServed);
  EXPECT_FALSE(small.sharded);
}

TEST(Server, AlreadyExpiredDeadlineRejectedWithoutTouchingPlanner) {
  Fixture fx;
  sim::Device dev;
  ManualClock clock(1000);
  ServerConfig cfg;
  cfg.clock = &clock;
  Server server(dev, cfg);  // deliberately NOT started
  Request req = fx.request();
  req.deadline_us = 500;  // already in the past
  const Response res = server.submit(req).get();
  EXPECT_EQ(res.outcome, Outcome::kExpired);
  EXPECT_EQ(res.status.code(), ErrorCode::kDeadlineExceeded);
  const auto counts = server.counts();
  EXPECT_EQ(counts.expired_admission, 1);
  EXPECT_EQ(counts.admitted, 0);
  // The planner was never consulted: no cache traffic at all.
  const auto cache = server.cache().stats();
  EXPECT_EQ(cache.hits + cache.misses + cache.failures, 0);
  server.stop();
}

TEST(Server, QuotaRejectionIsRetryableUnavailable) {
  Fixture fx;
  sim::Device dev;
  ManualClock clock(0);
  ServerConfig cfg;
  cfg.clock = &clock;
  cfg.quota.rate_per_s = 1;
  cfg.quota.burst = 2;
  Server server(dev, cfg);  // not started: admission only
  EXPECT_EQ(server.submit(fx.request("a")).wait_for(std::chrono::seconds(0)),
            std::future_status::timeout);  // admitted, queued
  server.submit(fx.request("a"));          // second token
  const Response shed = server.submit(fx.request("a")).get();
  EXPECT_EQ(shed.outcome, Outcome::kShedQuota);
  EXPECT_EQ(shed.status.code(), ErrorCode::kUnavailable);
  EXPECT_TRUE(retryable(shed.status.code()))
      << "quota rejections must invite client backoff-and-retry";
  // Another tenant is unaffected.
  EXPECT_EQ(server.submit(fx.request("b")).wait_for(std::chrono::seconds(0)),
            std::future_status::timeout);
  EXPECT_EQ(server.counts().shed_quota, 1);
  server.stop();  // drains the three admitted requests
}

TEST(Server, FullQueueShedsWithClassifiedStatus) {
  Fixture fx;
  sim::Device dev;
  ServerConfig cfg;
  cfg.queue_capacity = 2;
  Server server(dev, cfg);  // not started: the queue only fills
  server.submit(fx.request());
  server.submit(fx.request());
  const Response shed = server.submit(fx.request()).get();
  EXPECT_EQ(shed.outcome, Outcome::kShedQueueFull);
  EXPECT_EQ(shed.status.code(), ErrorCode::kUnavailable);
  EXPECT_EQ(server.counts().shed_queue_full, 1);
  server.stop();
}

TEST(Server, ZeroCapacityQueueShedsEverything) {
  Fixture fx;
  sim::Device dev;
  ServerConfig cfg;
  cfg.queue_capacity = 0;
  Server server(dev, cfg);
  server.start();
  for (int i = 0; i < 5; ++i) {
    const Response res = server.submit(fx.request()).get();
    EXPECT_EQ(res.outcome, Outcome::kShedQueueFull);
  }
  server.stop();
  EXPECT_EQ(server.counts().shed_queue_full, 5);
  EXPECT_EQ(server.counts().admitted, 0);
}

TEST(Server, DeadlineExpiredInQueueClassifiedAtDequeue) {
  Fixture fx;
  sim::Device dev;
  ManualClock clock(0);
  ServerConfig cfg;
  cfg.clock = &clock;
  Server server(dev, cfg);  // not started yet
  Request req = fx.request();
  req.deadline_us = 1000;
  auto fut = server.submit(req);  // admitted with headroom
  clock.advance_us(2000);         // ...which then expires in the queue
  server.stop();                  // drains: dequeue-time check fires
  const Response res = fut.get();
  EXPECT_EQ(res.outcome, Outcome::kExpired);
  EXPECT_EQ(res.status.code(), ErrorCode::kDeadlineExceeded);
  EXPECT_EQ(server.counts().expired_queue, 1);
}

TEST(Server, StopResolvesEveryAdmittedFuture) {
  Fixture fx;
  sim::Device dev;
  ServerConfig cfg;
  cfg.workers = 2;
  Server server(dev, cfg);
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 20; ++i) futures.push_back(server.submit(fx.request()));
  server.start();
  server.stop();
  std::int64_t served = 0;
  for (auto& f : futures) {
    const Response res = f.get();  // must not hang
    if (res.outcome == Outcome::kServed) {
      ++served;
      EXPECT_EQ(res.output, fx.expected);
    }
  }
  EXPECT_EQ(served, server.counts().served);
  EXPECT_EQ(server.counts().terminal(), server.counts().submitted);
}

TEST(Server, RetriesFaultsWithDeterministicBackoffOnManualClock) {
  Fixture fx;
  sim::Device dev;
  ManualClock clock(0);
  ServerConfig cfg;
  cfg.clock = &clock;
  cfg.workers = 1;
  cfg.backoff.max_retries = 3;
  // The ladder is disabled so injected launch faults surface to the
  // service retry loop (which replans and relaunches).
  cfg.plan.enable_fallback = false;
  // Coalescing would make the launch count — and so which seed-5 fault
  // draw hits which request — depend on how many requests are already
  // queued at each dequeue: a first fused group of 2-6 members fails
  // once, falls back to solo launches that all draw clean, and the rest
  // fuse cleanly, leaving zero retries. One launch per request keeps
  // the draw sequence fixed (coalesce_test covers coalesced retries).
  cfg.coalesce.enabled = false;
  Server server(dev, cfg);
  sim::ScopedFaults faults("seed=5,launch.p=0.45");
  server.start();
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 8; ++i) futures.push_back(server.submit(fx.request()));
  server.stop();
  std::int64_t served = 0, failed = 0;
  for (auto& f : futures) {
    const Response res = f.get();
    if (res.served()) {
      ++served;
      EXPECT_EQ(res.output, fx.expected) << "served must be bit-identical";
    } else {
      ++failed;
      EXPECT_EQ(res.outcome, Outcome::kFailed);
      EXPECT_FALSE(res.status.is_ok());
    }
  }
  const auto counts = server.counts();
  EXPECT_EQ(counts.terminal(), counts.submitted);
  EXPECT_EQ(served, counts.served);
  EXPECT_EQ(failed, counts.failed);
  // The fault spec guarantees some launches failed; with retries armed
  // at least one request must have gone around the loop (and the
  // ManualClock means the backoff consumed simulated, not wall, time).
  EXPECT_GT(counts.retries, 0);
}

TEST(Server, FailedFusedLaunchIsEveryMembersFirstAttempt) {
  // All 8 requests are queued before start(), so the first dequeue fuses
  // them into one launch. The seed-5 launch draws read
  // 1,0,0,0,0,0,0,0,1,1,0,...: the fused launch fails (retryable), seven
  // members are served by their first solo retry and the last one by its
  // third. The fused attempt counts for every member, exactly like a
  // failed solo attempt: 8 + 2 retries, and attempts 2 (x7) and 4.
  Fixture fx;
  sim::Device dev;
  ManualClock clock(0);
  ServerConfig cfg;
  cfg.clock = &clock;
  cfg.workers = 1;
  cfg.backoff.max_retries = 3;
  // The ladder is disabled so the injected fault fails the fused launch
  // instead of being retried inside the plan.
  cfg.plan.enable_fallback = false;
  Server server(dev, cfg);
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 8; ++i) futures.push_back(server.submit(fx.request()));
  sim::ScopedFaults faults("seed=5,launch.p=0.45");
  server.start();
  server.stop();
  std::vector<int> attempts;
  std::int64_t retried = 0;
  for (auto& f : futures) {
    const Response res = f.get();
    ASSERT_TRUE(res.served()) << res.status.to_string();
    EXPECT_EQ(res.output, fx.expected);
    EXPECT_FALSE(res.coalesced);
    attempts.push_back(res.attempts);
    retried += res.attempts - 1;
  }
  std::sort(attempts.begin(), attempts.end());
  EXPECT_EQ(attempts, (std::vector<int>{2, 2, 2, 2, 2, 2, 2, 4}));
  const auto counts = server.counts();
  EXPECT_EQ(counts.coalesced_launches, 0);
  EXPECT_EQ(counts.retries, 10);
  EXPECT_EQ(counts.retries, retried);
  EXPECT_EQ(counts.terminal(), counts.submitted);
}

TEST(Server, LoadgenRunsCleanWithoutFaults) {
  sim::Device dev;
  dev.set_num_threads(1);
  ServerConfig cfg;
  cfg.workers = 3;
  Server server(dev, cfg);
  server.start();
  LoadgenConfig lcfg;
  lcfg.requests = 60;
  lcfg.clients = 3;
  lcfg.tenants = 3;
  lcfg.distinct_shapes = 4;
  lcfg.max_extent = 8;
  const auto report = run_load(server, lcfg);
  server.stop();
  EXPECT_EQ(report.completed, lcfg.requests);
  EXPECT_EQ(report.served, lcfg.requests);
  EXPECT_EQ(report.mismatches, 0);
  EXPECT_EQ(report.failed, 0);
  // Plan-cache reuse: 4 distinct shapes, 60 requests. A coalesced
  // group resolves its shared plan ONCE for the whole fused launch, so
  // count cache traffic (not served requests): the planner itself must
  // have run at most ~once per distinct shape (x2 slack for workers
  // racing a cold cache).
  const auto cache = server.cache().stats();
  const auto counts = server.counts();
  EXPECT_LE(cache.misses, 2 * lcfg.distinct_shapes);
  EXPECT_GE(cache.hits + counts.coalesced_members - counts.coalesced_launches,
            report.served - 2 * lcfg.distinct_shapes);
}

}  // namespace
}  // namespace ttlg::service
