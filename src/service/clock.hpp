// Time source for the serving layer. Deadlines, token-bucket refill
// and retry backoff all read the SAME Clock, so tests can swap in a
// ManualClock and get fully deterministic quota/deadline/backoff
// behaviour — "the seeded clock" the service test battery runs on —
// while production uses the monotonic SteadyClock.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>

namespace ttlg::service {

class Clock {
 public:
  virtual ~Clock() = default;
  /// Monotonic microseconds. The epoch is arbitrary but fixed for the
  /// clock's lifetime; only differences and comparisons are meaningful.
  virtual std::int64_t now_us() const = 0;
  /// Wait for `us` microseconds of this clock's time. The real clock
  /// sleeps the thread; the manual clock advances itself instead, so
  /// backoff waits complete instantly (and deterministically) in tests.
  virtual void sleep_us(std::int64_t us) = 0;
};

/// Wall time: std::chrono::steady_clock rebased to the process start.
class SteadyClock final : public Clock {
 public:
  std::int64_t now_us() const override;
  void sleep_us(std::int64_t us) override;
  /// Process-wide instance (the default for ServerConfig::clock).
  static SteadyClock& global();
};

/// Test clock: time moves only when told to. sleep_us advances the
/// clock by the requested amount, emulating the wait.
class ManualClock final : public Clock {
 public:
  explicit ManualClock(std::int64_t start_us = 0) : t_us_(start_us) {}
  std::int64_t now_us() const override {
    return t_us_.load(std::memory_order_relaxed);
  }
  void sleep_us(std::int64_t us) override { advance_us(us); }
  void advance_us(std::int64_t us) {
    t_us_.fetch_add(us, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> t_us_;
};

/// No deadline: sorts after every real timestamp.
inline constexpr std::int64_t kNoDeadline =
    std::numeric_limits<std::int64_t>::max();

}  // namespace ttlg::service
