#include "shard/sharded_executor.hpp"

#include <cstdint>
#include <map>

#include "gpusim/texture_cache.hpp"
#include "gpusim/timing_model.hpp"
#include "telemetry/event.hpp"

namespace ttlg::shard {

const char* to_string(ShardPolicy policy) {
  switch (policy) {
    case ShardPolicy::kUniform:
      return "uniform";
    case ShardPolicy::kPerDevice:
      return "per-device";
  }
  return "?";
}

Expected<ShardedResult> ShardedExecutor::run_count_only(
    const Shape& shape, const Permutation& perm, int elem_size) {
  auto res = capture([&]() -> ShardedResult {
    switch (elem_size) {
      case 1:
        return run_impl<std::uint8_t>(shape, perm, nullptr, nullptr, 1, 0);
      case 2:
        return run_impl<std::uint16_t>(shape, perm, nullptr, nullptr, 1, 0);
      case 4:
        return run_impl<float>(shape, perm, nullptr, nullptr, 1.0f, 0.0f);
      case 8:
        return run_impl<double>(shape, perm, nullptr, nullptr, 1.0, 0.0);
      default:
        TTLG_RAISE(ErrorCode::kInvalidArgument,
                   "unsupported element size " + std::to_string(elem_size));
    }
  });
  if (!res.has_value()) note_status_failure("shard.run", res.status());
  return res;
}

void ShardedExecutor::replay_tex_logs(
    const std::vector<std::vector<std::int64_t>>& logs,
    std::vector<ShardExecution>& shards) const {
  bool any = false;
  for (const auto& log : logs) any = any || !log.empty();
  if (!any) return;
  // One reference cache, walked in shard (block) order — the same
  // access sequence the unsharded launch would have produced, so each
  // shard inherits exactly the misses its blocks caused there.
  const sim::DeviceProperties& props = fleet_.device(0).props();
  sim::TextureCache cache(props.tex_cache_lines, props.tex_line_bytes);
  for (std::size_t i = 0; i < shards.size() && i < logs.size(); ++i) {
    for (const std::int64_t addr : logs[i]) {
      if (!cache.access(addr)) ++shards[i].counters.tex_misses;
    }
  }
}

void ShardedExecutor::finalize(ShardedResult& res,
                               const TransposeProblem& problem) const {
  const LinkProperties& link = fleet_.link();
  const Index volume = problem.volume();

  // The split-axis extent is the sum of the shard widths (each shard
  // owns volume * width / extent elements; extent divides volume, so
  // the per-shard element counts are exact integers).
  Index axis_extent = 0;
  for (const auto& s : res.shards) axis_extent += s.dim_hi - s.dim_lo;

  struct DeviceLoad {
    double exec_s = 0;
    Index bytes_in = 0, bytes_out = 0;
  };
  std::map<int, DeviceLoad> load;
  for (auto& s : res.shards) {
    // Final per-shard kernel time from the FINAL counters (texture
    // replay may have rewritten tex_misses after the launch) against
    // the device that actually ran the shard.
    s.exec_s =
        sim::kernel_timing(fleet_.device(s.device).props(), s.counters)
            .total_s;
    const Index elems = axis_extent > 0
                            ? (volume / axis_extent) * (s.dim_hi - s.dim_lo)
                            : volume;
    s.bytes_in = elems * problem.elem_size;
    s.bytes_out = elems * problem.elem_size;
    s.transfer_in_s = link.transfer_s(s.bytes_in);
    s.transfer_out_s = link.transfer_s(s.bytes_out);
    auto& dl = load[s.device];
    dl.exec_s += s.exec_s;
    dl.bytes_in += s.bytes_in;
    dl.bytes_out += s.bytes_out;
    res.transfer_bytes += s.bytes_in + s.bytes_out;
  }

  // Per-device timeline: scatter its input regions, run its shard
  // batch back-to-back, gather its output regions. Devices overlap
  // with each other but not internally; the run completes when the
  // slowest device does.
  res.makespan_s = 0;
  res.exec_s = 0;
  for (const auto& [dev, dl] : load) {
    (void)dev;
    const double span =
        link.transfer_s(dl.bytes_in) + dl.exec_s + link.transfer_s(dl.bytes_out);
    res.makespan_s = std::max(res.makespan_s, span);
    res.exec_s = std::max(res.exec_s, dl.exec_s);
  }

  telemetry::event(telemetry::Site::kShardRunDone,
                   {{"schema", to_string(res.schema)},
                    {"policy", to_string(res.policy)},
                    {"shards", res.shards.size()}, {"devices", load.size()},
                    {"axis_out_pos", res.axis_out_pos},
                    {"counters_exact", res.counters_exact},
                    {"makespan_us", res.makespan_s * 1e6},
                    {"transfer_bytes", res.transfer_bytes},
                    {"makespan_s", res.makespan_s}});
}

}  // namespace ttlg::shard
