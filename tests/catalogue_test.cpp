// The telemetry catalogue: docs/observability.md lists exactly the
// catalogued names, and one run over every instrumented path — plan,
// execute, the fallback ladder under injected faults, batched, plan
// cache, plan files, service, shard and TTGT — emits no name into the
// registry, the log, the flight ring, the trace or the model-accuracy
// report that the catalogue lacks.
#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/batched_plan.hpp"
#include "core/plan_cache.hpp"
#include "core/plan_io.hpp"
#include "core/ttlg.hpp"
#include "gpusim/fault_injector.hpp"
#include "service/server.hpp"
#include "shard/sharded_executor.hpp"
#include "telemetry/accuracy.hpp"
#include "telemetry/catalogue.hpp"
#include "telemetry/event.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/log.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "ttgt/contraction.hpp"

namespace ttlg {
namespace {

using telemetry::Entry;
using telemetry::Kind;

const char* kind_name(Kind k) {
  constexpr const char* kNames[] = {"counter", "gauge",   "gauge",
                                    "histogram", "log",   "note",
                                    "stage",   "instant", "residual"};
  return kNames[static_cast<int>(k)];
}

const char* clock_name(telemetry::Clock c) {
  constexpr const char* kNames[] = {"none", "wall", "sim"};
  return kNames[static_cast<int>(c)];
}

const char* gate_name(telemetry::Gate g) {
  constexpr const char* kNames[] = {"counters", "always", "debug", "info",
                                    "warn",     "error",  "trace"};
  return kNames[static_cast<int>(g)];
}

/// True when `name` is `pattern` with every "<label>" replaced by a
/// non-empty label.
bool matches(std::string_view pattern, std::string_view name) {
  const auto open = pattern.find('<');
  if (open == std::string_view::npos) return pattern == name;
  if (name.substr(0, open) != pattern.substr(0, open)) return false;
  const std::string_view rest = pattern.substr(pattern.find('>', open) + 1);
  for (std::size_t len = 1; open + len <= name.size(); ++len)
    if (matches(rest, name.substr(open + len))) return true;
  return false;
}

/// The docs table row of one entry.
std::string row(const Entry& e) {
  std::ostringstream os;
  os << "| `" << e.name << "` | " << kind_name(e.kind) << " | "
     << (*e.unit ? e.unit : "-") << " | " << clock_name(e.clock) << " | "
     << gate_name(e.gate) << " | " << e.doc << " |";
  return os.str();
}

TEST(Catalogue, EverySiteEmitsSomething) {
  for (int s = 0; s < static_cast<int>(telemetry::Site::kCount); ++s)
    EXPECT_FALSE(telemetry::entries_of(static_cast<telemetry::Site>(s)).empty())
        << "site " << s;
  std::size_t grouped = 0;
  for (int s = 0; s < static_cast<int>(telemetry::Site::kCount); ++s)
    grouped += telemetry::entries_of(static_cast<telemetry::Site>(s)).size();
  EXPECT_EQ(grouped, telemetry::catalogue().size());
}

TEST(Catalogue, DocsTableMatchesTheCatalogue) {
  std::set<std::string> code;
  for (const Entry& e : telemetry::catalogue()) code.insert(row(e));

  std::ifstream in(std::string(TTLG_DOCS_DIR) + "/observability.md");
  ASSERT_TRUE(in.good());
  std::set<std::string> docs;
  bool in_section = false;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("## ", 0) == 0)
      in_section = line == "## Catalogue of emitted names";
    else if (in_section && line.rfind("| `", 0) == 0)
      docs.insert(line);
  }
  for (const std::string& r : code)
    EXPECT_TRUE(docs.count(r)) << "missing from docs/observability.md:\n"
                               << r;
  for (const std::string& r : docs)
    EXPECT_TRUE(code.count(r)) << "not in the catalogue:\n" << r;
}

/// Whether some entry of one of `kinds` matches `name`.
bool catalogued(const std::string& name, std::initializer_list<Kind> kinds) {
  for (const Entry& e : telemetry::catalogue())
    for (Kind k : kinds)
      if (e.kind == k && matches(e.name, name)) return true;
  return false;
}

/// Every instrumented path, once, with every sink open.
void run_everything() {
  sim::Device dev;
  const std::vector<std::pair<Extents, std::vector<Index>>> problems = {
      {{64, 32, 48}, {2, 0, 1}}, {{32, 32}, {1, 0}},
      {{40, 4, 40}, {0, 2, 1}},  {{16, 16, 16, 16}, {3, 1, 0, 2}},
      {{8, 8, 8}, {0, 1, 2}},    {{4, 8, 4, 8}, {0, 3, 2, 1}}};
  for (const auto& [ext, perm] : problems) {
    Plan plan = make_plan(dev, Shape(ext), Permutation(perm));
    auto in = dev.alloc<double>(plan.problem().volume());
    auto out = dev.alloc<double>(plan.problem().volume());
    plan.execute<double>(in, out);
    std::stringstream file;
    save_plan(file, plan);
    load_plan(dev, file);
    dev.free(in);
    dev.free(out);
  }

  // Fallback ladders, batched fallbacks and classified failures.
  const Shape shape({64, 32, 48});
  const Permutation perm({2, 0, 1});
  auto in = dev.alloc<double>(shape.volume());
  auto out = dev.alloc<double>(shape.volume());
  const Plan plan = make_plan(dev, shape, perm);
  for (const char* faults : {"launch.nth=1", "tex.every=1", "launch.every=1"}) {
    sim::ScopedFaults scoped(faults);
    (void)plan.try_execute<double>(in, out);
  }
  {
    sim::ScopedFaults scoped("alloc.nth=1");
    (void)try_make_plan(dev, shape, perm);
  }
  std::vector<std::pair<sim::DeviceBuffer<double>, sim::DeviceBuffer<double>>>
      batch;
  for (int m = 0; m < 3; ++m)
    batch.emplace_back(dev.alloc<double>(shape.volume()),
                       dev.alloc<double>(shape.volume()));
  run_batched<double>(plan, batch);
  run_batched<double>(plan, {batch.front()});
  {
    sim::ScopedFaults scoped("launch.every=1");
    (void)try_run_batched<double>(plan, batch);
  }

  // Plan cache: miss, hit, eviction, uncacheable and failure.
  PlanCache cache(1);
  cache.get(dev, shape, perm);
  cache.get(dev, shape, perm);
  cache.get(dev, Shape({32, 32}), Permutation({1, 0}));
  {
    sim::ScopedFaults scoped("alloc.nth=1");
    cache.get(dev, shape, perm);
  }
  EXPECT_THROW(cache.get_shared(dev, shape, perm, {}, nullptr,
                                [](sim::Device&, const Shape&,
                                   const Permutation&,
                                   const PlanOptions&) -> Plan {
                                  TTLG_RAISE(ErrorCode::kInternal, "no plan");
                                }),
               Error);

  // Service: coalesced, solo, sharded, expired and retried requests.
  shard::Fleet fleet = shard::Fleet::homogeneous(2);
  service::ServerConfig cfg;
  cfg.workers = 1;
  cfg.fleet = &fleet;
  cfg.shard_min_volume = 60000;
  service::Server server(dev, cfg);
  const auto request = [](const Shape& s, const Permutation& p) {
    service::Request r;
    r.tenant = "t0";
    r.shape = s;
    r.perm = p;
    r.input = std::make_shared<const std::vector<double>>(
        static_cast<std::size_t>(s.volume()), 1.0);
    return r;
  };
  std::vector<std::future<service::Response>> futures;
  for (int i = 0; i < 3; ++i)
    futures.push_back(server.submit(request(Shape({16, 8, 4}), perm)));
  futures.push_back(server.submit(request(shape, perm)));
  service::Request expired = request(Shape({16, 8, 4}), perm);
  expired.deadline_us = 0;
  futures.push_back(server.submit(expired));
  {
    sim::ScopedFaults scoped("launch.nth=1");
    server.start();
    for (auto& f : futures) f.get();
    server.stop();
  }

  // Shard and TTGT.
  std::vector<double> host(static_cast<std::size_t>(shape.volume()), 2.0);
  std::vector<double> result(host.size());
  shard::ShardedExecutor ex(fleet, shard::ShardOptions{});
  (void)ex.run<double>(shape, perm, host, result);
  const auto spec = ttgt::ContractionSpec::parse("ik,kj->ij");
  const Shape a({16, 8}), b({8, 16});
  const auto tplan = ttgt::plan_ttgt(dev.props(), spec, a, b);
  ttgt::execute_ttgt(dev, tplan, Tensor<double>(a), Tensor<double>(b));
}

TEST(Catalogue, EveryEmittedNameIsCatalogued) {
  const telemetry::ScopedLevel trace(telemetry::Level::kTrace);
  const telemetry::ScopedLogLevel debug(telemetry::LogLevel::kDebug);
  auto& fr = telemetry::FlightRecorder::global();
  const bool recorder_was_on = telemetry::recorder_enabled();
  fr.set_enabled(true);
  auto& reg = telemetry::MetricsRegistry::global();
  auto& tc = telemetry::TraceCollector::global();
  auto& acc = telemetry::ModelAccuracy::global();
  reg.clear();
  tc.clear();
  fr.clear();
  acc.clear();
  std::set<std::string> log_names;
  telemetry::set_log_sink([&](const std::string& line) {
    const auto rec = telemetry::Json::parse(line);
    log_names.insert(rec.at("component").as_str() + "/" +
                     rec.at("event").as_str());
  });

  run_everything();

  telemetry::set_log_sink(nullptr);
  const telemetry::Json metrics = reg.to_json();
  const auto trace_events = tc.events();
  const auto ring = fr.entries();
  const telemetry::Json residuals = acc.to_json();
  fr.set_enabled(recorder_was_on);
  reg.clear();
  tc.clear();
  acc.clear();

  std::set<std::string> seen;
  for (const char* section : {"counters", "gauges", "histograms"})
    for (const auto& [name, value] : metrics.at(section).items()) {
      seen.insert(name);
      EXPECT_TRUE(catalogued(name, {Kind::kCounter, Kind::kGauge,
                                    Kind::kGaugeSum, Kind::kHistogram}))
          << "metric " << name;
    }
  for (const std::string& name : log_names) {
    seen.insert(name);
    EXPECT_TRUE(catalogued(name, {Kind::kLog})) << "log event " << name;
  }
  for (const auto& e : ring) {
    const std::string name = std::string(e.component) + "/" + e.event;
    seen.insert(name);
    EXPECT_TRUE(catalogued(name, {Kind::kLog, Kind::kNote}))
        << "ring entry " << name;
  }
  for (const auto& ev : trace_events) {
    const std::string name = ev.cat + "/" + ev.name;
    seen.insert(name);
    EXPECT_TRUE(catalogued(name, {ev.ph == 'X' ? Kind::kStage
                                               : Kind::kInstant}))
        << "trace event " << name;
  }
  for (const auto& [key, value] : residuals.items()) {
    if (key == "ALL") continue;
    seen.insert("model_accuracy/" + key);
    EXPECT_TRUE(catalogued("model_accuracy/" + key, {Kind::kResidual}))
        << "model-accuracy key " << key;
  }
  // The run must reach most of the catalogue, or the check is vacuous.
  EXPECT_GE(seen.size(), 90u);
}

}  // namespace
}  // namespace ttlg
