#include "gpusim/fault_injector.hpp"

#include <cstdlib>
#include <sstream>

#include "telemetry/event.hpp"
#include "telemetry/flight_recorder.hpp"

namespace ttlg::sim {
namespace {

FaultSite site_from_name(const std::string& name, const std::string& spec) {
  if (name == "alloc") return FaultSite::kAlloc;
  if (name == "launch") return FaultSite::kLaunch;
  if (name == "tex") return FaultSite::kTexCache;
  if (name == "smem") return FaultSite::kSmem;
  TTLG_RAISE(ErrorCode::kInvalidArgument,
             "TTLG_FAULTS: unknown fault site '" + name + "' in '" + spec +
                 "' (expected alloc, launch, tex or smem)");
}

}  // namespace

const char* to_string(FaultSite site) {
  switch (site) {
    case FaultSite::kAlloc: return "alloc";
    case FaultSite::kLaunch: return "launch";
    case FaultSite::kTexCache: return "tex";
    case FaultSite::kSmem: return "smem";
  }
  return "unknown";
}

FaultSpec FaultSpec::parse(const std::string& text) {
  FaultSpec spec;
  std::istringstream is(text);
  std::string entry;
  while (std::getline(is, entry, ',')) {
    // Trim surrounding whitespace.
    const auto b = entry.find_first_not_of(" \t");
    if (b == std::string::npos) continue;
    const auto e = entry.find_last_not_of(" \t");
    entry = entry.substr(b, e - b + 1);

    const auto eq = entry.find('=');
    TTLG_CHECK_CODE(eq != std::string::npos && eq + 1 < entry.size(),
                    ErrorCode::kInvalidArgument,
                    "TTLG_FAULTS: entry '" + entry +
                        "' is not of the form key=value");
    const std::string key = entry.substr(0, eq);
    const std::string value = entry.substr(eq + 1);
    std::istringstream vs(value);

    if (key == "seed") {
      TTLG_CHECK_CODE(static_cast<bool>(vs >> spec.seed) && vs.eof(),
                      ErrorCode::kInvalidArgument,
                      "TTLG_FAULTS: seed '" + value + "' is not an integer");
      continue;
    }
    const auto dot = key.find('.');
    TTLG_CHECK_CODE(dot != std::string::npos, ErrorCode::kInvalidArgument,
                    "TTLG_FAULTS: key '" + key +
                        "' must be seed or <site>.<trigger>");
    auto& trig = spec.site(site_from_name(key.substr(0, dot), text));
    const std::string param = key.substr(dot + 1);
    if (param == "p") {
      double p = 0;
      TTLG_CHECK_CODE(static_cast<bool>(vs >> p) && vs.eof() && p >= 0.0 &&
                          p <= 1.0,
                      ErrorCode::kInvalidArgument,
                      "TTLG_FAULTS: probability '" + value +
                          "' must be a float in [0, 1]");
      trig.p = p;
    } else if (param == "nth" || param == "every") {
      std::int64_t n = 0;
      TTLG_CHECK_CODE(static_cast<bool>(vs >> n) && vs.eof() && n >= 1,
                      ErrorCode::kInvalidArgument,
                      "TTLG_FAULTS: '" + key + "' must be an integer >= 1");
      (param == "nth" ? trig.nth : trig.every) = n;
    } else {
      TTLG_RAISE(ErrorCode::kInvalidArgument,
                 "TTLG_FAULTS: unknown trigger '" + param +
                     "' (expected p, nth or every)");
    }
  }
  return spec;
}

std::string FaultSpec::to_string() const {
  std::ostringstream os;
  os << "seed=" << seed;
  for (int s = 0; s < kNumFaultSites; ++s) {
    const auto& t = sites[static_cast<std::size_t>(s)];
    const char* name = sim::to_string(static_cast<FaultSite>(s));
    if (t.p > 0) os << ',' << name << ".p=" << t.p;
    if (t.nth > 0) os << ',' << name << ".nth=" << t.nth;
    if (t.every > 0) os << ',' << name << ".every=" << t.every;
  }
  return os.str();
}

FaultInjector::FaultInjector() {
  if (const char* env = std::getenv("TTLG_FAULTS");
      env != nullptr && *env != '\0') {
    configure(FaultSpec::parse(env));
  }
}

FaultInjector& FaultInjector::global() {
  static FaultInjector injector;
  return injector;
}

void FaultInjector::configure(const FaultSpec& spec) {
  std::lock_guard<std::mutex> lock(mu_);
  spec_ = spec;
  rng_ = Rng(spec.seed);
  queries_.fill(0);
  injected_.fill(0);
  armed_.store(spec.any(), std::memory_order_relaxed);
}

bool FaultInjector::fire(FaultSite site) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto& trig = spec_.site(site);
  if (!trig.armed()) return false;
  const std::size_t i = static_cast<std::size_t>(site);
  const std::int64_t n = ++queries_[i];
  bool hit = false;
  if (trig.nth > 0 && n == trig.nth) hit = true;
  if (trig.every > 0 && n % trig.every == 0) hit = true;
  // Draw even when already hit so the consumed random sequence depends
  // only on the query count, not on which trigger matched.
  if (trig.p > 0 && rng_.uniform01() < trig.p) hit = true;
  if (!hit) return false;
  ++injected_[i];
  telemetry::event(telemetry::Site::kFaultInjected,
                   {{"site", sim::to_string(site)}, {"query", n},
                    {"injected", injected_[i]}});
  // An injected fault is exactly the post-mortem moment the flight
  // recorder exists for: dump the last-N-events context naming the site.
  telemetry::FlightRecorder::global().dump_on_error(
      sim::to_string(site), ErrorCode::kFaultInjected,
      "fault injected at site " + std::string(sim::to_string(site)));
  return true;
}

FaultSpec FaultInjector::spec() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spec_;
}

std::int64_t FaultInjector::queries(FaultSite site) const {
  std::lock_guard<std::mutex> lock(mu_);
  return queries_[static_cast<std::size_t>(site)];
}

std::int64_t FaultInjector::injected(FaultSite site) const {
  std::lock_guard<std::mutex> lock(mu_);
  return injected_[static_cast<std::size_t>(site)];
}

std::int64_t FaultInjector::total_injected() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::int64_t total = 0;
  for (auto v : injected_) total += v;
  return total;
}

}  // namespace ttlg::sim
