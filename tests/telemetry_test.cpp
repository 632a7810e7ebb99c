// Telemetry subsystem: Json round-trips, metrics registry export, trace
// span nesting, plan-cache counters, and model-accuracy aggregation.
// Tests that touch the GLOBAL registry/collector scope the level with
// ScopedLevel and clear the globals they used, so suites stay
// order-independent.
#include <gtest/gtest.h>

#include "core/plan_cache.hpp"
#include "core/ttlg.hpp"
#include "telemetry/accuracy.hpp"
#include "telemetry/json.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"

namespace ttlg {
namespace {

using telemetry::Json;

TEST(Json, ScalarsRoundTrip) {
  for (const std::string text :
       {"null", "true", "false", "0", "-17", "9007199254740993", "3.25",
        "-1e-3", "\"hi\"", "\"\"", "[]", "{}"}) {
    const Json j = Json::parse(text);
    EXPECT_EQ(Json::parse(j.dump()), j) << text;
  }
}

TEST(Json, NestedDocumentRoundTrip) {
  Json doc = Json::object();
  doc["name"] = "ttlg";
  doc["version"] = 1;
  doc["pi"] = 3.14159;
  doc["flags"] = Json::array();
  doc["flags"].push_back(true);
  doc["flags"].push_back(nullptr);
  doc["nested"]["deep"]["leaf"] = -42;

  const std::string compact = doc.dump();
  const std::string pretty = doc.dump(2);
  EXPECT_EQ(Json::parse(compact), doc);
  EXPECT_EQ(Json::parse(pretty), doc);
  // Insertion order is preserved in the serialized form.
  EXPECT_LT(compact.find("\"name\""), compact.find("\"version\""));
  EXPECT_LT(compact.find("\"version\""), compact.find("\"pi\""));
}

TEST(Json, StringEscapes) {
  const std::string raw = "quote\" backslash\\ newline\n tab\t ctrl\x01 end";
  Json j = raw;
  const Json back = Json::parse(j.dump());
  EXPECT_EQ(back.as_str(), raw);
  // Control characters must be escaped in the output.
  EXPECT_EQ(j.dump().find('\n'), std::string::npos);
  EXPECT_NE(j.dump().find("\\u0001"), std::string::npos);
}

TEST(Json, DoubleFormattingSurvivesRoundTrip) {
  for (const double d : {0.1, 1.0 / 3.0, 1e300, 5e-324, 123456.789}) {
    const Json j = d;
    EXPECT_DOUBLE_EQ(Json::parse(j.dump()).as_double(), d) << d;
  }
}

TEST(Json, ParseErrors) {
  for (const std::string bad : {"", "{", "[1,", "{\"a\":}", "tru", "1.2.3",
                                "\"unterminated", "[1] trailing", "{'a':1}"}) {
    EXPECT_THROW(Json::parse(bad), Error) << bad;
  }
}

TEST(TelemetryLevel, ParseAndScopedOverride) {
  EXPECT_EQ(telemetry::parse_level("off"), telemetry::Level::kOff);
  EXPECT_EQ(telemetry::parse_level("counters"), telemetry::Level::kCounters);
  EXPECT_EQ(telemetry::parse_level("trace"), telemetry::Level::kTrace);
  EXPECT_FALSE(telemetry::parse_level("bogus").has_value());

  const telemetry::Level before = telemetry::level();
  {
    const telemetry::ScopedLevel scoped(telemetry::Level::kTrace);
    EXPECT_TRUE(telemetry::trace_enabled());
    {
      const telemetry::ScopedLevel off(telemetry::Level::kOff);
      EXPECT_FALSE(telemetry::counters_enabled());
    }
    EXPECT_TRUE(telemetry::trace_enabled());
  }
  EXPECT_EQ(telemetry::level(), before);

  // The optional form is a no-op when empty.
  const telemetry::ScopedLevel noop{std::optional<telemetry::Level>{}};
  EXPECT_EQ(telemetry::level(), before);
}

TEST(MetricsRegistry, CountersGaugesHistograms) {
  telemetry::MetricsRegistry reg;
  EXPECT_TRUE(reg.empty());
  reg.counter("a.hits").inc();
  reg.counter("a.hits").inc(4);
  reg.gauge("a.load").set(0.75);
  auto& h = reg.histogram("a.lat_us", {1.0, 10.0, 100.0});
  h.observe(0.5);
  h.observe(50.0);
  h.observe(1e6);  // overflow bucket

  EXPECT_EQ(reg.counter_value("a.hits"), 5);
  EXPECT_EQ(reg.counter_value("absent"), 0);
  EXPECT_DOUBLE_EQ(reg.gauge_value("a.load"), 0.75);
  EXPECT_EQ(h.count(), 3);
  EXPECT_EQ(h.bucket_counts().size(), 4u);
  EXPECT_EQ(h.bucket_counts()[3], 1);

  reg.clear();
  EXPECT_TRUE(reg.empty());
}

TEST(MetricsRegistry, CounterRefResolvesOnceAndSurvivesClear) {
  telemetry::MetricsRegistry reg;
  telemetry::CounterRef ref(reg, "cached.counter");
  EXPECT_EQ(reg.counter_value("cached.counter"), 0);
  ref.inc();
  ref.inc(2);
  EXPECT_EQ(reg.counter_value("cached.counter"), 3);
  EXPECT_EQ(&ref.get(), &reg.counter("cached.counter"));
  // clear() drops the counter the handle points at; the handle must
  // resolve the new one instead of writing through a dangling pointer.
  reg.clear();
  EXPECT_EQ(reg.counter_value("cached.counter"), 0);
  ref.inc(5);
  EXPECT_EQ(reg.counter_value("cached.counter"), 5);
  EXPECT_EQ(&ref.get(), &reg.counter("cached.counter"));
}

TEST(MetricsRegistry, JsonExportRoundTrips) {
  telemetry::MetricsRegistry reg;
  reg.counter("x.count").inc(7);
  reg.gauge("x.value").set(2.5);
  reg.histogram("x.hist", {10.0}).observe(3.0);

  const Json j = Json::parse(reg.to_json().dump());
  EXPECT_EQ(j.at("counters").at("x.count").as_int(), 7);
  EXPECT_DOUBLE_EQ(j.at("gauges").at("x.value").as_double(), 2.5);
  EXPECT_EQ(j.at("histograms").at("x.hist").at("count").as_int(), 1);
  EXPECT_DOUBLE_EQ(j.at("histograms").at("x.hist").at("sum").as_double(), 3.0);

  // The text rendering mentions every metric.
  const std::string table = reg.to_table();
  EXPECT_NE(table.find("x.count"), std::string::npos);
  EXPECT_NE(table.find("x.hist"), std::string::npos);
}

TEST(Trace, SpanNestingAndContainment) {
  const telemetry::ScopedLevel scoped(telemetry::Level::kTrace);
  auto& tc = telemetry::TraceCollector::global();
  tc.clear();
  {
    telemetry::TraceSpan outer("outer", "test");
    ASSERT_TRUE(outer.active());
    outer.arg("k", 1);
    {
      telemetry::TraceSpan inner("inner", "test");
      inner.instant("tick", Json::object());
    }
  }
  const auto events = tc.events();
  tc.clear();

  // Destruction order: tick (instant), inner, outer.
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].name, "tick");
  EXPECT_EQ(events[0].ph, 'i');
  EXPECT_EQ(events[1].name, "inner");
  EXPECT_EQ(events[2].name, "outer");
  EXPECT_EQ(events[1].depth, 1);
  EXPECT_EQ(events[2].depth, 0);
  // chrome://tracing reconstructs nesting from [ts, ts+dur] containment.
  EXPECT_GE(events[1].ts_us, events[2].ts_us);
  EXPECT_LE(events[1].ts_us + events[1].dur_us,
            events[2].ts_us + events[2].dur_us + 1e-6);
  EXPECT_EQ(events[2].args.at("k").as_int(), 1);

  // With tracing off a span is inert and records nothing.
  const telemetry::ScopedLevel off(telemetry::Level::kOff);
  telemetry::TraceSpan dead("dead", "test");
  EXPECT_FALSE(dead.active());
  EXPECT_TRUE(tc.empty());
}

TEST(Trace, JsonIsChromeTracingShaped) {
  const telemetry::ScopedLevel scoped(telemetry::Level::kTrace);
  auto& tc = telemetry::TraceCollector::global();
  tc.clear();
  { telemetry::TraceSpan span("s", "cat"); }
  const Json j = Json::parse(tc.to_json().dump());
  tc.clear();

  EXPECT_EQ(j.at("displayTimeUnit").as_str(), "ms");
  ASSERT_EQ(j.at("traceEvents").size(), 1u);
  const Json& ev = j.at("traceEvents").at(std::size_t{0});
  EXPECT_EQ(ev.at("name").as_str(), "s");
  EXPECT_EQ(ev.at("cat").as_str(), "cat");
  EXPECT_EQ(ev.at("ph").as_str(), "X");
  EXPECT_TRUE(ev.contains("ts"));
  EXPECT_TRUE(ev.contains("dur"));
  EXPECT_TRUE(ev.contains("pid"));
  EXPECT_TRUE(ev.contains("tid"));
}

TEST(PlanCache, HitMissCountersReachGlobalRegistry) {
  const telemetry::ScopedLevel scoped(telemetry::Level::kCounters);
  auto& reg = telemetry::MetricsRegistry::global();
  reg.clear();
  telemetry::ModelAccuracy::global().clear();

  sim::Device dev;
  PlanCache cache;
  const Shape shape({16, 16, 16});
  const Permutation perm({2, 0, 1});
  bool hit = true;
  cache.get(dev, shape, perm, {}, &hit);
  EXPECT_FALSE(hit);
  cache.get(dev, shape, perm, {}, &hit);
  cache.get(dev, shape, perm, {}, &hit);
  EXPECT_TRUE(hit);

  EXPECT_EQ(cache.stats().hits, 2);
  EXPECT_EQ(cache.stats().misses, 1);
  EXPECT_EQ(reg.counter_value("plan_cache.hit"), 2);
  EXPECT_EQ(reg.counter_value("plan_cache.miss"), 1);
  EXPECT_EQ(reg.counter_value("plan.created"), 1);
  reg.clear();
  telemetry::ModelAccuracy::global().clear();
}

TEST(PlanCache, LruEvictionAtCapacity) {
  sim::Device dev;
  PlanCache cache(2);
  const Shape shape({8, 8, 8});
  cache.get(dev, shape, Permutation({2, 0, 1}));
  cache.get(dev, shape, Permutation({1, 2, 0}));
  // Touch the first entry so the second becomes the LRU victim.
  cache.get(dev, shape, Permutation({2, 0, 1}));
  cache.get(dev, shape, Permutation({0, 2, 1}));

  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1);
  bool hit = false;
  cache.get(dev, shape, Permutation({2, 0, 1}), {}, &hit);
  EXPECT_TRUE(hit);  // survived (recently used)
  cache.get(dev, shape, Permutation({1, 2, 0}), {}, &hit);
  EXPECT_FALSE(hit);  // was evicted

  // Shrinking the capacity evicts immediately.
  cache.set_capacity(1);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ModelAccuracy, AggregatesResiduals) {
  telemetry::ModelAccuracy acc;
  acc.record("OD", 1.1e-3, 1.0e-3);  // +10%
  acc.record("OD", 0.9e-3, 1.0e-3);  // -10%
  acc.record("OA", 2.0e-3, 0.0);     // excluded from ratios

  EXPECT_EQ(acc.observations("OD"), 2);
  const Json j = Json::parse(acc.to_json().dump());
  EXPECT_NEAR(j.at("OD").at("mean_abs_rel_err").as_double(), 0.1, 1e-9);
  EXPECT_NEAR(j.at("OD").at("bias_rel_err").as_double(), 0.0, 1e-9);
  EXPECT_EQ(j.at("ALL").at("n").as_int(), 3);

  const std::string report = acc.report();
  EXPECT_NE(report.find("OD"), std::string::npos);
  EXPECT_NE(report.find("ALL"), std::string::npos);
  acc.clear();
  EXPECT_TRUE(acc.empty());
}

TEST(ModelAccuracy, PlanExecutionFeedsGlobalReport) {
  const telemetry::ScopedLevel scoped(telemetry::Level::kCounters);
  auto& acc = telemetry::ModelAccuracy::global();
  auto& reg = telemetry::MetricsRegistry::global();
  acc.clear();
  reg.clear();

  sim::Device dev;
  const Shape shape({32, 32});
  auto in = dev.alloc<double>(shape.volume());
  auto out = dev.alloc<double>(shape.volume());
  Plan plan = make_plan(dev, shape, Permutation({1, 0}));
  plan.execute<double>(in, out);
  plan.execute<double>(in, out);

  EXPECT_EQ(acc.observations(to_string(plan.schema())), 2);
  EXPECT_EQ(reg.counter_value("plan.executions"), 2);
  acc.clear();
  reg.clear();
}

}  // namespace
}  // namespace ttlg
