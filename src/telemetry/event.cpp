#include "telemetry/event.hpp"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <type_traits>

#include "telemetry/accuracy.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/log.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"

namespace ttlg::telemetry {
namespace {

using Type = Field::Type;

std::string_view component_of(const Entry& e) {
  return std::string_view(e.name).substr(0, std::strcspn(e.name, "/"));
}

std::string_view name_of(const Entry& e) {
  return std::string_view(e.name).substr(std::strcspn(e.name, "/") + 1);
}

/// Log and note gates follow LogLevel's debug..error order.
LogLevel level_of(const Entry& e) {
  return static_cast<LogLevel>(static_cast<int>(e.gate) -
                               static_cast<int>(Gate::kDebug));
}

const Field* find(Fields fields, std::string_view key) {
  for (const Field& f : fields)
    if (f.type != Type::kAbsent && key == f.key) return &f;
  return nullptr;
}

/// Whether `e` takes field `f`: present, and named in e.fields (a
/// space-separated key list; nullptr names every key).
bool takes(const Entry& e, const Field& f) {
  if (f.type == Type::kAbsent || e.fields == nullptr)
    return f.type != Type::kAbsent;
  for (std::string_view keys(e.fields); !keys.empty();) {
    const std::size_t sp = std::min(keys.find(' '), keys.size());
    if (keys.substr(0, sp) == f.key) return true;
    keys.remove_prefix(std::min(sp + 1, keys.size()));
  }
  return false;
}

/// Truncating writer into a fixed char buffer.
struct Writer {
  char* p;
  char* end;
  void put(std::string_view s) {
    const std::size_t n = std::min<std::size_t>(s.size(), end - p);
    std::memcpy(p, s.data(), n);
    p += n;
  }
  void put(const Field& f) {
    char num[32];  // fits any int64 and any 6-digit double
    std::to_chars_result r{num, {}};
    switch (f.type) {
      case Type::kInt: r = std::to_chars(num, num + sizeof num, f.i); break;
      case Type::kReal:
        r = std::to_chars(num, num + sizeof num, f.d,
                          std::chars_format::general, 6);
        break;
      case Type::kBool: return put(f.i ? "true" : "false");
      case Type::kText: return put(f.text);
      case Type::kFormatted: return put(f.str());
      case Type::kAbsent: return;
    }
    if (r.ec == std::errc()) put(std::string_view(num, r.ptr - num));
  }
};

/// `pattern` with every "<label>" replaced by that field's value; the
/// length written, or 0 when a label field is missing.
std::size_t expand(std::string_view pattern, Fields fields, char* buf,
                   std::size_t cap) {
  Writer w{buf, buf + cap};
  while (!pattern.empty()) {
    const std::size_t open = std::min(pattern.find('<'), pattern.size());
    w.put(pattern.substr(0, open));
    if (open == pattern.size()) break;
    const std::size_t close = pattern.find('>', open);
    const Field* label =
        find(fields, pattern.substr(open + 1, close - open - 1));
    if (label == nullptr) return 0;
    w.put(*label);
    pattern.remove_prefix(close + 1);
  }
  return static_cast<std::size_t>(w.p - buf);
}

/// Stages open on this thread: the depth of the next trace event.
thread_local int t_depth = 0;

void trace(const Entry& e, std::string name, char ph, double ts_us,
           double dur_us, int depth, Json args) {
  TraceCollector::global().add({std::move(name), std::string(component_of(e)),
                                ph, ts_us, dur_us, depth, this_thread_id(),
                                std::move(args)});
}

Json fields_json(const Entry& e, Fields fields) {
  Json j;
  for (const Field& f : fields)
    if (takes(e, f)) j[f.key] = f.to_json();
  return j;
}

template <class M>
M& resolve(const Entry& e, MetricsRegistry& reg) {
  const std::uint64_t gen = reg.generation();
  if (e.generation.load(std::memory_order_acquire) == gen)
    return *static_cast<M*>(e.handle.load(std::memory_order_relaxed));
  M* m;
  if constexpr (std::is_same_v<M, Counter>)
    m = &reg.counter(e.name);
  else if constexpr (std::is_same_v<M, Gauge>)
    m = &reg.gauge(e.name);
  else
    m = &reg.histogram(e.name, {e.bounds.begin(), e.bounds.end()});
  e.handle.store(m, std::memory_order_relaxed);
  e.generation.store(gen, std::memory_order_release);
  return *m;
}

void residual(const Entry& e, Fields fields) {
  const Field* predicted = find(fields, "predicted_s");
  const Field* measured = find(fields, "measured_s");
  char key[64];
  const std::size_t len = expand(name_of(e), fields, key, sizeof key);
  if (predicted != nullptr && measured != nullptr && len > 0)
    ModelAccuracy::global().record(std::string_view(key, len),
                                   predicted->number(), measured->number());
}

void update(const Entry& e, Fields fields) {
  if (e.kind == Kind::kResidual) return residual(e, fields);
  const Field* value = e.fields ? find(fields, e.fields) : nullptr;
  if (e.fields && value == nullptr) return;
  const double x = value == nullptr ? 1.0 : value->number();
  const std::int64_t n = value == nullptr || value->type == Type::kReal
                             ? static_cast<std::int64_t>(x)
                             : value->i;
  MetricsRegistry& reg = MetricsRegistry::global();
  if (std::strchr(e.name, '<') != nullptr) {  // families are counters
    char name[128];
    if (const std::size_t len = expand(e.name, fields, name, sizeof name))
      reg.counter(std::string_view(name, len)).inc(n);
    return;
  }
  switch (e.kind) {
    case Kind::kCounter: resolve<Counter>(e, reg).inc(n); break;
    case Kind::kGauge: resolve<Gauge>(e, reg).set(x); break;
    case Kind::kGaugeSum: resolve<Gauge>(e, reg).add(x); break;
    case Kind::kHistogram: resolve<Histogram>(e, reg).observe(x); break;
    default: break;
  }
}

void note(const Entry& e, Fields fields) {
  char detail[sizeof(FlightEntry::detail)];
  Writer w{detail, detail + sizeof detail - 1};
  for (const Field& f : fields) {
    if (!takes(e, f)) continue;
    if (w.p != detail) w.put(" ");
    w.put(f.key);
    w.put("=");
    w.put(f);
  }
  FlightRecorder::global().note(level_of(e), component_of(e), name_of(e),
                                std::string_view(detail, w.p - detail));
}

}  // namespace

Json Field::to_json() const {
  switch (type) {
    case Type::kInt: return Json(i);
    case Type::kReal: return Json(d);
    case Type::kBool: return Json(i != 0);
    case Type::kText:
    case Type::kFormatted: return Json(str());
    case Type::kAbsent: break;
  }
  return Json();
}

void event(Site site, Fields fields) {
  for (const Entry& e : entries_of(site)) {
    switch (e.kind) {
      case Kind::kLog:
        if (log_enabled(level_of(e)))
          detail::write_log(level_of(e), component_of(e), name_of(e),
                            fields_json(e, fields));
        [[fallthrough]];
      case Kind::kNote:
        if (recorder_enabled()) note(e, fields);
        break;
      case Kind::kInstant:
        if (trace_enabled())
          trace(e, std::string(name_of(e)), 'i',
                TraceCollector::global().now_us(), 0, t_depth,
                fields_json(e, fields));
        break;
      case Kind::kStage: break;
      default:  // metrics and residuals
        if (e.gate == Gate::kAlways || counters_enabled()) update(e, fields);
    }
  }
}

Stage::Stage(Site site) : site_(site) {
  if (!trace_enabled()) return;
  for (const Entry& e : entries_of(site))
    if (e.kind == Kind::kStage) span_ = &e;
  if (span_ == nullptr) return;
  name_ = name_of(*span_);
  depth_ = t_depth++;
  start_us_ = TraceCollector::global().now_us();
}

Stage::~Stage() {
  if (span_ == nullptr) return;
  --t_depth;
  trace(*span_, std::move(name_), 'X', start_us_,
        TraceCollector::global().now_us() - start_us_, depth_,
        std::move(args_));
}

void Stage::emit(Fields fields) {
  event(site_, fields);
  if (span_ == nullptr) return;
  args_ = fields_json(*span_, fields);
  char name[128];
  if (const std::size_t n = expand(name_of(*span_), fields, name, sizeof name))
    name_.assign(name, n);
}

}  // namespace ttlg::telemetry
