#include "benchlib/runner.hpp"

#include <ostream>

#include "benchlib/report.hpp"
#include "gpusim/thread_pool.hpp"
#include "tensor/fusion.hpp"

namespace ttlg::bench {

Runner::Runner(RunnerOptions opts) : opts_(std::move(opts)) {}

std::vector<CaseResult> Runner::run_case(
    const Case& c, const std::vector<baselines::Backend*>& backends) {
  std::vector<CaseResult> out(backends.size());
  // Backends are independent by construction (fresh device per run),
  // so they measure concurrently; results land at their backend index,
  // keeping output and report rows in deterministic backend order.
  sim::ThreadPool::global().run_indexed(
      static_cast<std::int64_t>(backends.size()),
      sim::resolve_num_threads(opts_.num_threads), [&](std::int64_t bi) {
        baselines::Backend* backend = backends[static_cast<std::size_t>(bi)];
        // Fresh device per backend run: no cross-library cache effects.
        sim::Device dev(opts_.props);
        if (opts_.count_only) {
          dev.set_mode(sim::ExecMode::kCountOnly);
          dev.set_sampling(opts_.sampling);
        }
        const Index volume = c.shape.volume();
        auto in = opts_.count_only ? dev.alloc_virtual<double>(volume)
                                   : dev.alloc<double>(volume);
        auto aout = opts_.count_only ? dev.alloc_virtual<double>(volume)
                                     : dev.alloc<double>(volume);

        const auto r = backend->run(dev, in, aout, c.shape, c.perm);

        CaseResult res;
        res.case_id = c.id;
        res.backend = backend->name();
        res.volume = volume;
        res.scaled_rank = scaled_rank(c.shape, c.perm);
        res.plan_s = r.plan_s;
        res.kernel_s = r.kernel_s;
        res.bw_repeated_gbps = achieved_bandwidth_gbps(volume, 8, r.kernel_s);
        res.bw_single_gbps =
            achieved_bandwidth_gbps(volume, 8, r.kernel_s + r.plan_s);
        res.counters = r.counters;
        res.detail = r.detail;
        out[static_cast<std::size_t>(bi)] = std::move(res);
      });
  // Report rows are appended after the join, in backend order — the
  // report is not required to be thread-safe and files stay stable.
  if (opts_.report) {
    for (const auto& res : out) opts_.report->add_case(res);
  }
  return out;
}

void print_machine_header(std::ostream& os,
                          const sim::DeviceProperties& props) {
  os << "# Machine configuration (reproduction of paper Table III)\n"
     << "# " << props.to_string() << "\n"
     << "# Execution substrate: gpusim warp-accurate simulator; times are\n"
     << "# simulated kernel times; plan times are host wall-clock plus\n"
     << "# simulated plan-time device work. BW = 2*volume*8 / time.\n";
}

}  // namespace ttlg::bench
