#include "core/plan_cache.hpp"

#include "telemetry/event.hpp"

namespace ttlg {
std::shared_ptr<const Plan> PlanCache::get_shared(sim::Device& dev,
                                                  const Shape& shape,
                                                  const Permutation& perm,
                                                  const PlanOptions& opts,
                                                  bool* was_hit) {
  return get_shared(dev, shape, perm, opts, was_hit,
                    [](sim::Device& d, const Shape& s, const Permutation& p,
                       const PlanOptions& o) { return make_plan(d, s, p, o); });
}

std::shared_ptr<const Plan> PlanCache::get_shared(sim::Device& dev,
                                                  const Shape& shape,
                                                  const Permutation& perm,
                                                  const PlanOptions& opts,
                                                  bool* was_hit,
                                                  const PlanBuilder& build) {
  Key key{shape.extents(), perm.vec(), opts.elem_size};
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = cache_.find(key);
    if (it != cache_.end()) {
      ++stats_.hits;
      it->second.last_use = ++tick_;
      if (was_hit) *was_hit = true;
      telemetry::event(telemetry::Site::kCacheHit,
                       {{"shape", shape}, {"perm", perm}});
      return it->second.plan;
    }
  }
  if (was_hit) *was_hit = false;
  // Plan OUTSIDE the lock: planning is the expensive part, and misses
  // on different keys should not serialize each other.
  std::shared_ptr<Plan> plan;
  try {
    plan = std::make_shared<Plan>(build(dev, shape, perm, opts));
  } catch (...) {
    // A failed make_plan is a failure, not a miss: nothing was built,
    // nothing is inserted, and a permanently-failing key never occupies
    // cache space (retries replan from scratch every time).
    {
      std::lock_guard<std::mutex> lk(mu_);
      ++stats_.failures;
    }
    telemetry::event(telemetry::Site::kCacheFailure,
                     {{"shape", shape}, {"perm", perm}});
    throw;
  }
  std::lock_guard<std::mutex> lk(mu_);
  ++stats_.misses;
  telemetry::event(telemetry::Site::kCacheMiss,
                   {{"shape", shape}, {"perm", perm}});
  if (plan->degraded()) {
    // Degraded plans are served but not retained — the pressure that
    // forced the fallback may clear, and the next get() should replan.
    ++stats_.uncacheable;
    telemetry::event(telemetry::Site::kCacheUncacheable,
                     {{"shape", shape}, {"perm", perm}});
    return plan;
  }
  // A concurrent miss for the same key may have raced us here: first
  // insert wins, the duplicate build is dropped (~Plan frees its
  // device-side offset arrays).
  auto it = cache_.find(key);
  if (it != cache_.end()) {
    it->second.last_use = ++tick_;
    return it->second.plan;
  }
  Entry entry;
  entry.plan = plan;
  entry.last_use = ++tick_;
  cache_.emplace(std::move(key), std::move(entry));
  // Evict AFTER inserting so the entry just built is never the victim
  // (it is the most recently used one by construction).
  if (capacity_ > 0) {
    while (cache_.size() > capacity_) evict_lru();
  }
  return plan;
}

const Plan& PlanCache::get(sim::Device& dev, const Shape& shape,
                           const Permutation& perm, const PlanOptions& opts,
                           bool* was_hit) {
  auto plan = get_shared(dev, shape, perm, opts, was_hit);
  std::lock_guard<std::mutex> lk(mu_);
  last_returned_ = plan;
  return *last_returned_;
}

void PlanCache::set_capacity(std::size_t capacity) {
  std::lock_guard<std::mutex> lk(mu_);
  capacity_ = capacity;
  if (capacity_ > 0) {
    while (cache_.size() > capacity_) evict_lru();
  }
}

void PlanCache::evict_lru() {
  auto victim = cache_.begin();
  for (auto it = cache_.begin(); it != cache_.end(); ++it) {
    if (it->second.last_use < victim->second.last_use) victim = it;
  }
  cache_.erase(victim);  // the shared_ptr frees the plan once unreferenced
  ++stats_.evictions;
  telemetry::event(telemetry::Site::kCacheEvict,
                   {{"size", cache_.size()}, {"evictions", stats_.evictions}});
}

}  // namespace ttlg
