// Serving-grade observability: the structured event log, the flight
// recorder, the Prometheus exporter / snapshot writer, and the
// lock-free histogram quantiles. Tests that flip global state (log
// level, recorder switch, dump dir) restore it before returning so the
// rest of the suite is unaffected.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "core/ttlg.hpp"
#include "gpusim/device.hpp"
#include "gpusim/fault_injector.hpp"
#include "telemetry/accuracy.hpp"
#include "telemetry/event.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/log.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/prometheus.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"

namespace fs = std::filesystem;
using namespace ttlg;

namespace {

// Global allocation counter for the zero-overhead test. Counting is
// switched on only inside that test to keep the rest of the suite
// undisturbed.
std::atomic<bool> g_count_allocs{false};
std::atomic<std::int64_t> g_allocs{0};

}  // namespace

void* operator new(std::size_t n) {
  if (g_count_allocs.load(std::memory_order_relaxed))
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

/// Fresh per-test scratch directory under the system temp dir.
fs::path scratch_dir(const char* tag) {
  const fs::path dir = fs::temp_directory_path() /
                       (std::string("ttlg_obs_") + tag + "_" +
                        std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string slurp(const fs::path& path) {
  std::ifstream in(path);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

TEST(StructuredLog, RecordIsOneJsonDocumentWithStandardKeys) {
  std::vector<std::string> lines;
  telemetry::set_log_sink([&](const std::string& l) { lines.push_back(l); });
  {
    const telemetry::ScopedLogLevel lvl(telemetry::LogLevel::kDebug);
    telemetry::event(telemetry::Site::kRetry, {{"id", std::int64_t{42}},
                                               {"attempt", 2.5},
                                               {"status", "transpose"}});
  }
  telemetry::set_log_sink(nullptr);

  ASSERT_EQ(lines.size(), 1u);
  const auto rec = telemetry::Json::parse(lines[0]);
  EXPECT_EQ(rec.at("level").as_str(), "info");
  EXPECT_EQ(rec.at("component").as_str(), "service");
  EXPECT_EQ(rec.at("event").as_str(), "retry");
  EXPECT_GE(rec.at("ts_us").as_double(), 0.0);
  EXPECT_GE(rec.at("tid").as_int(), 1);
  EXPECT_EQ(rec.at("fields").at("id").as_int(), 42);
  EXPECT_DOUBLE_EQ(rec.at("fields").at("attempt").as_double(), 2.5);
  EXPECT_EQ(rec.at("fields").at("status").as_str(), "transpose");
  EXPECT_EQ(rec.items().size(), 6u);  // ts_us level tid component event fields
}

TEST(StructuredLog, LevelGateFiltersTheSink) {
  std::vector<std::string> lines;
  telemetry::set_log_sink([&](const std::string& l) { lines.push_back(l); });
  {
    const telemetry::ScopedLogLevel lvl(telemetry::LogLevel::kWarn);
    telemetry::event(telemetry::Site::kCacheEvict, {{"size", 1}});  // debug
    telemetry::event(telemetry::Site::kStatusError,                 // error
                     {{"site", "obs_test"}, {"code", "Internal"}});
  }
  telemetry::set_log_sink(nullptr);

  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"status.error\""), std::string::npos);
}

TEST(StructuredLog, KeyListsFilterTheRecord) {
  // The sim/launch record takes four of the launch's fields; the rest
  // feed the registry and the trace only.
  std::vector<std::string> lines;
  telemetry::set_log_sink([&](const std::string& l) { lines.push_back(l); });
  {
    const telemetry::ScopedLogLevel lvl(telemetry::LogLevel::kDebug);
    telemetry::event(telemetry::Site::kLaunch,
                     {{"kernel", "k"}, {"grid_blocks", 8},
                      {"block_threads", 256}, {"simulated_us", 1.5},
                      {"payload_bytes", 4096}, {"time_s", 1.5e-6}});
  }
  telemetry::set_log_sink(nullptr);

  ASSERT_EQ(lines.size(), 1u);
  const auto fields = telemetry::Json::parse(lines[0]).at("fields");
  EXPECT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields.at("kernel").as_str(), "k");
  EXPECT_FALSE(fields.contains("payload_bytes"));
}

TEST(StructuredLog, ParseLogLevelRoundTrips) {
  EXPECT_EQ(telemetry::parse_log_level("debug"), telemetry::LogLevel::kDebug);
  EXPECT_EQ(telemetry::parse_log_level("error"), telemetry::LogLevel::kError);
  EXPECT_EQ(telemetry::parse_log_level("off"), telemetry::LogLevel::kOff);
  EXPECT_FALSE(telemetry::parse_log_level("verbose").has_value());
  EXPECT_STREQ(telemetry::to_string(telemetry::LogLevel::kWarn), "warn");
}

TEST(ThreadIds, StableWithinAndDistinctAcrossThreads) {
  const std::uint32_t main_id = telemetry::this_thread_id();
  EXPECT_GE(main_id, 1u);
  EXPECT_EQ(telemetry::this_thread_id(), main_id);
  std::uint32_t other = 0;
  std::thread([&] { other = telemetry::this_thread_id(); }).join();
  EXPECT_GE(other, 1u);
  EXPECT_NE(other, main_id);
}

/// One launch-shaped event, as Device::emit_launch fires it.
void launch_event(int i) {
  telemetry::Stage stage(telemetry::Site::kLaunch);
  stage.emit({{"kernel", "orthogonal_distinct"}, {"gld_transactions", i},
              {"gst_transactions", i}, {"smem_bank_conflicts", 0},
              {"grid_blocks", 64}, {"block_threads", 256},
              {"payload_bytes", 1 << 20}, {"dram_transactions", 2 * i},
              {"simulated_time_us", 12.5}, {"occupancy", 0.75},
              {"mode", "count_only"}, {"simulated_us", 12.5},
              {"time_s", 12.5e-6}});
}

/// One execution-shaped event, as Plan::execute fires it.
void execution_event() {
  telemetry::event(telemetry::Site::kPlanExecution,
                   {{"exec_us", 12.5}, {"schema", "Orthogonal-Distinct"},
                    {"predicted_s", 1.2e-5}, {"measured_s", 1.25e-5}});
}

TEST(ZeroOverhead, DisabledTelemetrySitesAllocateNothing) {
  const telemetry::ScopedLevel off(telemetry::Level::kOff);
  const telemetry::ScopedLogLevel log_off(telemetry::LogLevel::kOff);
  auto& fr = telemetry::FlightRecorder::global();
  const bool recorder_was_on = telemetry::recorder_enabled();
  fr.set_enabled(false);
  const Shape shape({64, 32, 48});
  const Permutation perm({2, 0, 1});

  g_allocs.store(0, std::memory_order_relaxed);
  g_count_allocs.store(true, std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    // Every sink off: a stage, its close-out event, a log event and a
    // trace instant do no work at all.
    launch_event(i);
    telemetry::event(telemetry::Site::kRetry,
                     {{"id", i}, {"attempt", 1}, {"status", "Unavailable"}});
    telemetry::event(telemetry::Site::kOaCandidate, {{"in_vol", i}});
    // A plan-cache hit, as PlanCache::get_shared fires it: the shape and
    // permutation are formatted only by a sink that takes them.
    telemetry::event(telemetry::Site::kCacheHit,
                     {{"shape", shape}, {"perm", perm}});
  }
  g_count_allocs.store(false, std::memory_order_relaxed);
  fr.set_enabled(recorder_was_on);

  EXPECT_EQ(g_allocs.load(std::memory_order_relaxed), 0);
}

TEST(ZeroOverhead, RecorderOnLogOffSitesAllocateNothing) {
  // The default configuration: telemetry and log off, flight recorder
  // on. Once the thread's ring exists and the always-on handles are
  // resolved, launches and executions record without allocating.
  const telemetry::ScopedLevel off(telemetry::Level::kOff);
  const telemetry::ScopedLogLevel log_off(telemetry::LogLevel::kOff);
  auto& fr = telemetry::FlightRecorder::global();
  const bool recorder_was_on = telemetry::recorder_enabled();
  fr.set_enabled(true);
  fr.clear();
  launch_event(0);
  execution_event();

  g_allocs.store(0, std::memory_order_relaxed);
  g_count_allocs.store(true, std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    launch_event(i);
    execution_event();
  }
  g_count_allocs.store(false, std::memory_order_relaxed);
  const auto entries = fr.entries();
  fr.set_enabled(recorder_was_on);
  telemetry::MetricsRegistry::global().clear();
  telemetry::ModelAccuracy::global().clear();

  EXPECT_EQ(g_allocs.load(std::memory_order_relaxed), 0);
  ASSERT_FALSE(entries.empty());
  EXPECT_EQ(std::string(entries.back().event), "launch");
  EXPECT_EQ(std::string(entries.back().detail),
            "kernel=orthogonal_distinct grid_blocks=64 block_threads=256 "
            "simulated_us=12.5");
}

TEST(FlightRecorderTest, NotesRetainTruncateAndOrder) {
  auto& fr = telemetry::FlightRecorder::global();
  const bool was_on = telemetry::recorder_enabled();
  fr.set_enabled(true);
  fr.clear();

  fr.note(telemetry::LogLevel::kInfo, "a-component-name-longer-than-the-slot",
          "event_one", std::string(300, 'x'));
  fr.note(telemetry::LogLevel::kWarn, "short", "event_two", "detail two");
  const auto entries = fr.entries();
  fr.set_enabled(was_on);

  ASSERT_EQ(entries.size(), 2u);
  EXPECT_LT(entries[0].seq, entries[1].seq);  // global emission order
  EXPECT_EQ(std::string(entries[0].event), "event_one");
  EXPECT_LT(std::string(entries[0].component).size(), std::size_t{16});
  EXPECT_LT(std::string(entries[0].detail).size(), std::size_t{112});
  EXPECT_EQ(std::string(entries[1].detail), "detail two");
  EXPECT_EQ(entries[1].level, telemetry::LogLevel::kWarn);
  EXPECT_GE(entries[1].tid, 1u);
}

TEST(FlightRecorderTest, LogEventsMirrorIntoTheRing) {
  auto& fr = telemetry::FlightRecorder::global();
  const bool was_on = telemetry::recorder_enabled();
  fr.set_enabled(true);
  fr.clear();
  {
    // Log level off: nothing reaches the sink, but the ring still gets
    // the event, its fields formatted into the detail.
    const telemetry::ScopedLogLevel lvl(telemetry::LogLevel::kOff);
    telemetry::event(telemetry::Site::kCacheEvict,
                     {{"size", 3}, {"evictions", 1}});
  }
  const auto entries = fr.entries();
  fr.set_enabled(was_on);

  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(std::string(entries[0].component), "plan_cache");
  EXPECT_EQ(std::string(entries[0].event), "evict");
  EXPECT_EQ(entries[0].level, telemetry::LogLevel::kDebug);
  EXPECT_EQ(std::string(entries[0].detail), "size=3 evictions=1");
}

TEST(FlightRecorderTest, OverlongDetailsAreTruncatedPrefixes) {
  // A number that no longer fits after a long text field is cut like
  // text: every detail is a prefix of the full "key=value" line, for
  // every amount of room the number finds left.
  auto& fr = telemetry::FlightRecorder::global();
  const bool was_on = telemetry::recorder_enabled();
  fr.set_enabled(true);
  fr.clear();
  const telemetry::ScopedLogLevel lvl(telemetry::LogLevel::kOff);
  const std::size_t room = sizeof(telemetry::FlightEntry::detail) - 1;
  std::vector<std::string> full;
  for (std::size_t pad = room - 20; pad <= room; ++pad) {
    const std::string status(pad, 's');
    telemetry::event(telemetry::Site::kRetry,
                     {{"status", status}, {"id", 123456789}, {"attempt", 2}});
    full.push_back("status=" + status + " id=123456789 attempt=2");
  }
  const auto entries = fr.entries();
  fr.set_enabled(was_on);

  ASSERT_EQ(entries.size(), full.size());
  for (std::size_t i = 0; i < full.size(); ++i)
    EXPECT_EQ(std::string(entries[i].detail), full[i].substr(0, room)) << i;
}

TEST(FlightRecorderTest, SpecializationLeavesOneRingEntry) {
  auto& fr = telemetry::FlightRecorder::global();
  const bool was_on = telemetry::recorder_enabled();
  fr.set_enabled(true);
  sim::Device dev;
  Plan plan = make_plan(dev, Shape({64, 32, 48}), Permutation({2, 0, 1}));
  fr.clear();
  plan.finalize_specialization(true);
  const auto entries = fr.entries();
  fr.set_enabled(was_on);

  const auto specialized = std::count_if(
      entries.begin(), entries.end(), [](const telemetry::FlightEntry& e) {
        return std::string(e.event) == "plan.specialized";
      });
  EXPECT_EQ(specialized, 1);
}

TEST(FlightRecorderTest, RingCapacityBoundsPerThreadHistory) {
  auto& fr = telemetry::FlightRecorder::global();
  const bool was_on = telemetry::recorder_enabled();
  fr.set_enabled(true);
  fr.clear();
  fr.set_ring_capacity(8);
  // Capacity applies to rings registered from now on — use a fresh
  // thread so its ring is created at the new size.
  std::thread([&] {
    for (int i = 0; i < 50; ++i) {
      // snprintf instead of "d" + to_string(i): gcc-12 misfires
      // -Wrestrict on the concatenation here.
      char detail[16];
      std::snprintf(detail, sizeof detail, "d%d", i);
      fr.note(telemetry::LogLevel::kDebug, "cap_test", "evt", detail);
    }
  }).join();
  const auto entries = fr.entries();
  fr.set_ring_capacity(256);
  fr.set_enabled(was_on);

  std::vector<std::string> details;
  for (const auto& e : entries)
    if (std::string(e.component) == "cap_test") details.push_back(e.detail);
  ASSERT_EQ(details.size(), 8u);  // ring keeps the most recent N
  EXPECT_EQ(details.front(), "d42");
  EXPECT_EQ(details.back(), "d49");
}

TEST(FlightRecorderTest, DumpOnErrorWritesAttributablePostMortem) {
  auto& fr = telemetry::FlightRecorder::global();
  const bool was_on = telemetry::recorder_enabled();
  fr.set_enabled(true);
  fr.clear();
  const fs::path dir = scratch_dir("dump");
  fr.set_dump_dir(dir.string());
  const std::int64_t dumps_before = fr.dumps();

  fr.note(telemetry::LogLevel::kInfo, "obs_test", "pre_failure", "context");
  const std::string path =
      fr.dump_on_error("obs_site", ErrorCode::kDataLoss, "boom");
  fr.set_dump_dir("");
  fr.set_enabled(was_on);

  ASSERT_FALSE(path.empty());
  EXPECT_EQ(fr.dumps(), dumps_before + 1);
  const auto doc = telemetry::Json::parse(slurp(path));
  const auto& dump = doc.at("flight_recorder");
  EXPECT_EQ(dump.at("trigger").at("site").as_str(), "obs_site");
  EXPECT_EQ(dump.at("trigger").at("message").as_str(), "boom");
  // The history that led to the failure is in the dump, ending with the
  // trigger itself.
  ASSERT_GE(dump.at("events").size(), 2u);
  bool saw_context = false;
  for (std::size_t i = 0; i < dump.at("events").size(); ++i)
    if (dump.at("events").at(i).at("event").as_str() == "pre_failure")
      saw_context = true;
  EXPECT_TRUE(saw_context);
  fs::remove_all(dir);
}

TEST(FlightRecorderTest, FaultInjectionAutoDumps) {
  auto& fr = telemetry::FlightRecorder::global();
  const bool was_on = telemetry::recorder_enabled();
  fr.set_enabled(true);
  fr.clear();
  const fs::path dir = scratch_dir("fault");
  fr.set_dump_dir(dir.string());
  const std::int64_t dumps_before = fr.dumps();

  {
    sim::ScopedFaults faults("seed=1,alloc.every=1");
    sim::Device dev;
    EXPECT_THROW(dev.alloc<double>(64), Error);
  }
  fr.set_dump_dir("");
  fr.set_enabled(was_on);

  EXPECT_EQ(fr.dumps(), dumps_before + 1);
  std::vector<fs::path> files;
  for (const auto& e : fs::directory_iterator(dir)) files.push_back(e.path());
  ASSERT_EQ(files.size(), 1u);
  const auto doc = telemetry::Json::parse(slurp(files[0]));
  EXPECT_EQ(doc.at("flight_recorder").at("trigger").at("site").as_str(),
            "alloc");
  EXPECT_EQ(doc.at("flight_recorder").at("trigger").at("code").as_str(),
            "FaultInjected");
  fs::remove_all(dir);
}

TEST(HistogramQuantile, InterpolatesWithinTheOwningBucket) {
  const std::vector<double> bounds = {10.0, 20.0, 40.0};
  // 2 observations in (0,10], 2 in (10,20].
  const std::vector<std::int64_t> counts = {2, 2, 0, 0};
  EXPECT_DOUBLE_EQ(telemetry::histogram_quantile(bounds, counts, 0.5), 10.0);
  EXPECT_DOUBLE_EQ(telemetry::histogram_quantile(bounds, counts, 0.75), 15.0);
  EXPECT_DOUBLE_EQ(telemetry::histogram_quantile(bounds, counts, 1.0), 20.0);
}

TEST(HistogramQuantile, EdgeCases) {
  const std::vector<double> bounds = {10.0, 20.0, 40.0};
  // Empty histogram.
  EXPECT_DOUBLE_EQ(
      telemetry::histogram_quantile(bounds, {0, 0, 0, 0}, 0.5), 0.0);
  // Everything in the overflow bucket clamps to the last finite bound.
  EXPECT_DOUBLE_EQ(
      telemetry::histogram_quantile(bounds, {0, 0, 0, 4}, 0.99), 40.0);
  // Mismatched shapes are rejected, not misread.
  EXPECT_DOUBLE_EQ(telemetry::histogram_quantile(bounds, {1, 2}, 0.5), 0.0);
  // q outside [0,1] clamps.
  EXPECT_DOUBLE_EQ(
      telemetry::histogram_quantile(bounds, {4, 0, 0, 0}, 2.0), 10.0);
}

TEST(HistogramConcurrency, ObserveIsLockFreeAndLossless) {
  telemetry::Histogram h({1.0, 2.0, 3.0});
  constexpr int kThreads = 4;
  constexpr int kPerThread = 25000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([&h] {
      for (int i = 0; i < kPerThread; ++i)
        h.observe(static_cast<double>(i % 4) + 0.5);
    });
  for (auto& w : workers) w.join();

  EXPECT_EQ(h.count(), kThreads * kPerThread);
  const auto counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);
  for (const std::int64_t c : counts) EXPECT_EQ(c, kThreads * kPerThread / 4);
  // 0.5 + 1.5 + 2.5 + 3.5 per group of four observations — exact in
  // double, so the concurrent sum must match exactly too.
  EXPECT_DOUBLE_EQ(h.sum(), kThreads * kPerThread / 4 * 8.0);
  // Rank 50000 of 100000 is exactly the cumulative edge of the (1,2]
  // bucket, so the interpolated median is its upper bound.
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 2.0);
}

TEST(Prometheus, NameMangling) {
  EXPECT_EQ(telemetry::prometheus_name("plan_cache.hit"),
            "ttlg_plan_cache_hit");
  EXPECT_EQ(telemetry::prometheus_name("sim.launch-us"), "ttlg_sim_launch_us");
}

TEST(Prometheus, TextFormatExposition) {
  telemetry::MetricsRegistry reg;
  reg.counter("plan_cache.hit").inc(3);
  reg.gauge("speedup").set(1.5);
  auto& h = reg.histogram("lat.us", {1.0, 2.0, 4.0});
  h.observe(0.5);
  h.observe(1.5);
  h.observe(3.0);
  h.observe(100.0);

  const std::string text = telemetry::to_prometheus(reg);
  const auto has = [&](const char* needle) {
    return text.find(needle) != std::string::npos;
  };
  EXPECT_TRUE(has("# TYPE ttlg_plan_cache_hit counter"));
  EXPECT_TRUE(has("ttlg_plan_cache_hit 3\n"));
  EXPECT_TRUE(has("# TYPE ttlg_speedup gauge"));
  EXPECT_TRUE(has("ttlg_speedup 1.5\n"));
  EXPECT_TRUE(has("# TYPE ttlg_lat_us histogram"));
  // Buckets are cumulative and end at +Inf.
  EXPECT_TRUE(has("ttlg_lat_us_bucket{le=\"1\"} 1\n"));
  EXPECT_TRUE(has("ttlg_lat_us_bucket{le=\"2\"} 2\n"));
  EXPECT_TRUE(has("ttlg_lat_us_bucket{le=\"4\"} 3\n"));
  EXPECT_TRUE(has("ttlg_lat_us_bucket{le=\"+Inf\"} 4\n"));
  EXPECT_TRUE(has("ttlg_lat_us_sum 105\n"));
  EXPECT_TRUE(has("ttlg_lat_us_count 4\n"));
  // Derived quantile gauges.
  EXPECT_TRUE(has("ttlg_lat_us_p50 "));
  EXPECT_TRUE(has("ttlg_lat_us_p95 "));
  EXPECT_TRUE(has("ttlg_lat_us_p99 "));
}

TEST(Prometheus, MalformedSnapshotSectionsAreSkipped) {
  auto snapshot = telemetry::Json::parse(
      R"({"counters": {"good": 1, "bad": "nope"},
          "histograms": {"broken": {"bounds": [1], "counts": [1]},
                         "fine": {"bounds": [1.0], "counts": [1, 0],
                                  "sum": 0.5, "count": 1}}})");
  const std::string text = telemetry::to_prometheus(snapshot);
  EXPECT_NE(text.find("ttlg_good 1"), std::string::npos);
  EXPECT_EQ(text.find("ttlg_bad"), std::string::npos);
  EXPECT_EQ(text.find("ttlg_broken"), std::string::npos);
  EXPECT_NE(text.find("ttlg_fine_count 1"), std::string::npos);
}

TEST(SnapshotWriterTest, WritesJsonAndPromAtomically) {
  telemetry::MetricsRegistry::global().counter("obs_test.snapshot_marker")
      .inc();
  const fs::path dir = scratch_dir("snap");
  telemetry::SnapshotWriter w;
  EXPECT_FALSE(w.write_now());  // no path configured

  w.start((dir / "metrics.json").string(), 100000);
  EXPECT_TRUE(w.running());
  w.stop();  // flushes the terminal snapshot
  EXPECT_FALSE(w.running());
  const auto doc = telemetry::Json::parse(slurp(dir / "metrics.json"));
  EXPECT_GE(doc.at("counters").at("obs_test.snapshot_marker").as_int(), 1);
  EXPECT_FALSE(fs::exists(dir / "metrics.json.tmp"));  // rename, not write

  w.start((dir / "metrics.prom").string(), 100000);
  w.stop();
  const std::string prom = slurp(dir / "metrics.prom");
  EXPECT_EQ(prom.rfind("# HELP", 0), 0u);
  EXPECT_NE(prom.find("ttlg_obs_test_snapshot_marker"), std::string::npos);
  fs::remove_all(dir);
}

TEST(Trace, EventsCarryTidAndPerThreadDepth) {
  const telemetry::ScopedLevel scoped(telemetry::Level::kTrace);
  auto& collector = telemetry::TraceCollector::global();
  collector.clear();

  auto worker = [] {
    for (int i = 0; i < 200; ++i) {
      telemetry::Stage outer(telemetry::Site::kMakePlan);
      telemetry::Stage inner(telemetry::Site::kClassify);
    }
  };
  std::thread a(worker), b(worker);
  a.join();
  b.join();

  const auto events = collector.events();
  collector.clear();
  ASSERT_EQ(events.size(), 800u);
  std::vector<std::uint32_t> tids;
  for (const auto& ev : events) {
    EXPECT_GE(ev.tid, 1u);
    // Depth is tracked per thread: two concurrently-nesting threads
    // never push each other past their own lexical depth.
    EXPECT_EQ(ev.depth, ev.name == "make_plan" ? 0 : 1);
    if (std::find(tids.begin(), tids.end(), ev.tid) == tids.end())
      tids.push_back(ev.tid);
  }
  EXPECT_EQ(tids.size(), 2u);
}

TEST(Trace, CapacityCapsRetentionAndCountsDrops) {
  const std::int64_t dropped_before =
      telemetry::MetricsRegistry::global().counter_value(
          "trace.dropped_events");
  telemetry::TraceCollector collector;
  collector.set_capacity(4);
  for (int i = 0; i < 10; ++i) {
    // snprintf instead of "e" + to_string(i): gcc-12 misfires -Wrestrict
    // on the concatenation here.
    char name[16];
    std::snprintf(name, sizeof name, "e%d", i);
    collector.add({name, "obs_test", 'i'});
  }

  EXPECT_EQ(collector.size(), 4u);
  EXPECT_EQ(collector.dropped(), 6);
  EXPECT_EQ(telemetry::MetricsRegistry::global().counter_value(
                "trace.dropped_events"),
            dropped_before + 6);
  // Overflow drops the newest events; the retained prefix is intact.
  const auto events = collector.events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().name, "e0");
  EXPECT_EQ(events.back().name, "e3");
  collector.clear();
  EXPECT_EQ(collector.dropped(), 0);
}

}  // namespace
