// The benchmark binary. Usage:
//   ttlg_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--trace-out <path>]
// Prints one JSON object (every metric with its unit and clock, the
// effective configuration and the attempted/failed counts) as the last
// line of stdout. --trace 1 runs the traced pass of both workloads and of
// the open-loop service scenario, whatever --workload names.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "core/stride_program.hpp"
#include "gpusim/device.hpp"
#include "gpusim/thread_pool.hpp"
#include "telemetry/telemetry.hpp"

extern char** environ;

namespace perfbench {
namespace {

// Environment knobs that change the measured program, pinned to their
// defaults so an inherited setting cannot skew a run.
constexpr const char* kPinnedEnv[][2] = {
    {"TTLG_SPECIALIZE", "1"},
    {"TTLG_PATTERN_CACHE", "1"},
    {"TTLG_TELEMETRY", "off"},
    {"TTLG_FLIGHT_RECORDER", "1"},
};

/// Clears every TTLG_* variable, then sets the pinned ones. Runs before
/// the library reads any of them.
void pin_environment(int threads) {
  std::vector<std::string> names;
  for (char** e = environ; *e; ++e) {
    const std::string kv(*e);
    if (kv.rfind("TTLG_", 0) == 0) names.push_back(kv.substr(0, kv.find('=')));
  }
  for (const std::string& n : names) unsetenv(n.c_str());
  for (const auto& kv : kPinnedEnv) setenv(kv[0], kv[1], 1);
  setenv("TTLG_THREADS", std::to_string(threads).c_str(), 1);
}

void record_environment(const Options& opt, Report& rep) {
  for (char** e = environ; *e; ++e) {
    const std::string kv(*e);
    if (kv.rfind("TTLG_", 0) == 0)
      rep.config("env." + kv.substr(0, kv.find('=')), kv.substr(kv.find('=') + 1));
  }
  const ttlg::sim::Device dev;
  rep.config("device", dev.props().name);
  rep.config("specialization", ttlg::specialization_enabled_by_env() ? "on" : "off");
  rep.config("pattern_cache", dev.pattern_cache() ? "on" : "off");
  rep.config("telemetry_level",
             ttlg::telemetry::level() == ttlg::telemetry::Level::kOff ? "off" : "on");
  rep.config("host.nproc", std::to_string(std::thread::hardware_concurrency()));
  rep.config("host.llc", host_llc_size());
  rep.config("pool.threads",
             std::to_string(ttlg::sim::ThreadPool::global().workers() + 1));
  rep.config("seed", std::to_string(opt.seed));
  rep.config("seconds", std::to_string(opt.seconds));
  rep.config("trace", opt.trace ? "1" : "0");
}

int usage() {
  std::fprintf(stderr,
               "usage: ttlg_perfbench --workload single-use-sweep|repeated-large "
               "--seed N --seconds S --trace 0|1 "
               "[--trace-out PATH]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") opt.workload = v;
    else if (k == "--seed") opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") opt.seconds = std::atof(v.c_str());
    else if (k == "--trace") opt.trace = v == "1";
    else if (k == "--trace-out") opt.trace_path = v;
    else return usage();
  }
  using Fn = void (*)(const Options&, Report&, SpanRecorder&);
  const std::vector<std::pair<std::string, Fn>> workloads = {
      {"single-use-sweep", run_sweep},
      {"repeated-large", run_repeated},
  };
  Fn selected = nullptr;
  for (const auto& [name, fn] : workloads)
    if (name == opt.workload) selected = fn;
  // The traced run also measures the service scenario.
  std::vector<std::pair<std::string, Fn>> traced = workloads;
  traced.emplace_back("service-open-loop", run_service);
  if (!selected || opt.seconds <= 0) return usage();

  // The shared pool is sized from TTLG_THREADS; the benchmark pins every
  // thread count it uses explicitly and never exceeds the host's cores.
  const int nproc = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  opt.service_workers = std::min(kServiceWorkers, std::max(1, nproc - 2));
  pin_environment(nproc);

  Report rep;
  record_environment(opt, rep);
  SpanRecorder rec(opt.trace);
  try {
    if (!opt.trace) {
      selected(opt, rep, rec);
      rep.metric("peak_rss_mb", peak_rss_mb(), "MB", "wall");
    } else {
      // One traced run covers every scenario, since the per-layer metrics
      // span all of them.
      for (const auto& [name, fn] : traced) {
        const std::int64_t t0 = now_ns();
        fn(opt, rep, rec);
        const double wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
        std::fprintf(stderr, "traced %s in %.1f s\n", name.c_str(), wall_s);
        rep.config("trace.wall_s." + name, std::to_string(wall_s));
      }
      for (const auto& [name, ms] : rec.self_ms_p50())
        rep.metric("self_ms_p50." + name, ms, "ms", "wall");
      if (!opt.trace_path.empty()) rec.write(opt.trace_path);
    }
  } catch (const std::exception& e) {
    rep.check(false, std::string("uncaught: ") + e.what());
  }
  std::printf("%s\n", rep.to_json().c_str());
  return 0;
}
