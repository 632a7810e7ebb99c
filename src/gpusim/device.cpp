#include "gpusim/device.hpp"

#include <cstdlib>
#include <string_view>

#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace ttlg::sim {
namespace {

/// Fault-injection site shared by real and virtual allocations:
/// simulated device OOM, classified like the real condition so the
/// degradation ladder treats both identically.
void check_injected_alloc_fault(std::int64_t bytes) {
  auto& inj = FaultInjector::global();
  if (inj.armed() && inj.fire(FaultSite::kAlloc)) {
    TTLG_RAISE(ErrorCode::kResourceExhausted,
               "fault injection: device allocation of " +
                   std::to_string(bytes) + " bytes failed (simulated OOM)");
  }
}

}  // namespace

Device::Device(DeviceProperties props) : props_(std::move(props)) {
  // An inconsistent descriptor (e.g. a per-block shared-memory limit
  // above the per-SM capacity) would silently corrupt every timing and
  // occupancy computation downstream — reject it at construction.
  props_.validate();
}

bool Device::default_pattern_cache() {
  static const bool on = [] {
    const char* env = std::getenv("TTLG_PATTERN_CACHE");
    return env == nullptr || std::string_view(env) != "0";
  }();
  return on;
}

std::byte* Device::allocate_bytes(std::int64_t bytes) {
  check_injected_alloc_fault(bytes);
  Allocation a;
  a.bytes = bytes;
  a.storage = std::make_unique<std::byte[]>(
      static_cast<std::size_t>(std::max<std::int64_t>(bytes, 1)));
  std::byte* p = a.storage.get();
  std::lock_guard<std::mutex> lk(alloc_mu_);
  const std::int64_t base = next_addr_;
  // Keep allocations 256-byte aligned and disjoint in device address
  // space so transaction segments never straddle two buffers.
  next_addr_ += ((bytes + 255) / 256 + 1) * 256;
  bytes_allocated_ += bytes;
  base_by_ptr_[p] = base;
  allocations_[base] = std::move(a);
  return p;
}

std::int64_t Device::register_virtual(std::int64_t bytes) {
  check_injected_alloc_fault(bytes);
  Allocation a;
  a.bytes = bytes;  // storage-free: counted but never dereferenced
  std::lock_guard<std::mutex> lk(alloc_mu_);
  const std::int64_t base = next_addr_;
  next_addr_ += ((bytes + 255) / 256 + 1) * 256;
  bytes_allocated_ += bytes;
  allocations_[base] = std::move(a);
  return base;
}

std::int64_t Device::base_of(const std::byte* p) const {
  std::lock_guard<std::mutex> lk(alloc_mu_);
  const auto it = base_by_ptr_.find(p);
  TTLG_ASSERT(it != base_by_ptr_.end(), "unknown device pointer");
  return it->second;
}

void Device::free_base(std::int64_t base) {
  std::lock_guard<std::mutex> lk(alloc_mu_);
  const auto it = allocations_.find(base);
  TTLG_CHECK(it != allocations_.end(),
             "double free or foreign buffer passed to Device::free");
  bytes_allocated_ -= it->second.bytes;
  base_by_ptr_.erase(it->second.storage.get());
  allocations_.erase(it);
}

bool Device::try_free_base(std::int64_t base) {
  std::lock_guard<std::mutex> lk(alloc_mu_);
  const auto it = allocations_.find(base);
  if (it == allocations_.end()) return false;
  bytes_allocated_ -= it->second.bytes;
  base_by_ptr_.erase(it->second.storage.get());
  allocations_.erase(it);
  return true;
}

void Device::free_all() {
  std::lock_guard<std::mutex> lk(alloc_mu_);
  allocations_.clear();
  base_by_ptr_.clear();
  bytes_allocated_ = 0;
}

void Device::validate(const LaunchConfig& cfg) const {
  TTLG_CHECK(cfg.grid_blocks > 0, "grid must have at least one block");
  TTLG_CHECK(cfg.block_offset >= 0, "negative block window offset");
  TTLG_CHECK(cfg.block_threads > 0 &&
                 cfg.block_threads <= props_.max_threads_per_block,
             "block size out of range for device '" + props_.name + "'");
  TTLG_CHECK(cfg.block_threads % props_.warp_size == 0,
             "block size must be a multiple of the warp size");
  TTLG_CHECK(cfg.shared_elems >= 0, "negative shared memory request");
  TTLG_CHECK(!cfg.classes ||
                 (cfg.classes->a_chunks > 0 && cfg.classes->b_chunks > 0),
             "block classes need positive chunk counts");
  TTLG_CHECK_CODE(
      cfg.shared_elems * cfg.elem_size <= props_.shared_mem_per_block_bytes,
      ErrorCode::kResourceExhausted,
      "kernel '" + cfg.kernel_name + "' exceeds shared memory per block (" +
          std::to_string(cfg.shared_elems * cfg.elem_size) + " > " +
          std::to_string(props_.shared_mem_per_block_bytes) + " bytes)");
}

void Device::check_injected_launch_faults(const LaunchConfig& cfg) const {
  auto& inj = FaultInjector::global();
  if (cfg.shared_elems > 0 && inj.fire(FaultSite::kSmem)) {
    TTLG_RAISE(ErrorCode::kResourceExhausted,
               "fault injection: shared-memory over-allocation for kernel '" +
                   cfg.kernel_name + "'");
  }
  if (inj.fire(FaultSite::kLaunch)) {
    TTLG_RAISE(ErrorCode::kFaultInjected,
               "fault injection: launch failure for kernel '" +
                   cfg.kernel_name + "'");
  }
  if (cfg.uses_texture && inj.fire(FaultSite::kTexCache)) {
    TTLG_RAISE(ErrorCode::kFaultInjected,
               "fault injection: texture-cache fault for kernel '" +
                   cfg.kernel_name + "'");
  }
}

void Device::note_dispatch(const LaunchConfig& cfg,
                           const std::vector<LaunchResult>& results,
                           bool telem, double start_us) const {
  const auto emit = [&](const LaunchConfig& c, const LaunchResult& r) {
    if (telem)
      record_launch_telemetry(c, r, start_us);
    else
      log_launch(c, r);
  };
  if (results.size() == 1) return emit(cfg, results.front());
  LaunchResult agg;
  for (const LaunchResult& r : results) {
    agg.counters += r.counters;
    agg.time_s += r.time_s;
  }
  agg.counters.block_threads = cfg.block_threads;
  agg.counters.shared_bytes_per_block = cfg.shared_elems * cfg.elem_size;
  agg.timing = kernel_timing(props_, agg.counters);
  LaunchConfig fused = cfg;
  fused.grid_blocks = agg.counters.grid_blocks;
  fused.kernel_name += "+batched";
  emit(fused, agg);
}

double Device::telemetry_now_us() {
  return telemetry::TraceCollector::global().now_us();
}

void Device::log_launch(const LaunchConfig& cfg,
                        const LaunchResult& res) const {
  telemetry::LogEvent ev(telemetry::LogLevel::kDebug, "sim", "launch");
  ev.field("kernel", cfg.kernel_name.empty() ? "kernel" : cfg.kernel_name)
      .field("grid_blocks", cfg.grid_blocks)
      .field("block_threads", cfg.block_threads)
      .field("simulated_us", res.time_s * 1e6);
  ev.detail((cfg.kernel_name.empty() ? std::string("kernel")
                                     : cfg.kernel_name) +
            " " + std::to_string(cfg.grid_blocks) + " blocks");
}

void Device::record_launch_telemetry(const LaunchConfig& cfg,
                                     const LaunchResult& res,
                                     double start_us) const {
  const std::string& name =
      cfg.kernel_name.empty() ? std::string("kernel") : cfg.kernel_name;

  auto& reg = telemetry::MetricsRegistry::global();
  reg.counter("sim.launches").inc();
  reg.counter("sim.blocks").inc(cfg.grid_blocks);
  reg.counter("sim.dram_transactions").inc(res.counters.dram_transactions());
  reg.counter("sim.payload_bytes").inc(res.counters.payload_bytes);
  reg.counter("sim.smem_bank_conflicts").inc(res.counters.smem_bank_conflicts);
  reg.gauge("sim.kernel_time_s").add(res.time_s);
  reg.histogram("sim.launch_us",
                {1.0, 3.0, 10.0, 30.0, 100.0, 300.0, 1000.0, 3000.0, 10000.0})
      .observe(res.time_s * 1e6);
  if (telemetry::log_site_enabled(telemetry::LogLevel::kDebug))
    log_launch(cfg, res);

  if (!telemetry::trace_enabled()) return;
  auto& tc = telemetry::TraceCollector::global();
  telemetry::TraceEvent ev;
  ev.name = "launch:" + name;
  ev.cat = "sim";
  ev.ph = 'X';
  ev.ts_us = start_us;
  ev.dur_us = tc.now_us() - start_us;  // host time spent simulating
  ev.depth = tc.depth();
  telemetry::Json args = res.counters.to_json();
  args["simulated_time_us"] = res.time_s * 1e6;
  args["occupancy"] = res.timing.occupancy;
  args["waves"] = res.timing.waves;
  args["dram_us"] = res.timing.dram_s * 1e6;
  args["smem_us"] = res.timing.smem_s * 1e6;
  args["alu_us"] = res.timing.alu_s * 1e6;
  args["tex_us"] = res.timing.tex_s * 1e6;
  args["mode"] = mode_ == ExecMode::kFunctional ? "functional" : "count_only";
  ev.args = std::move(args);
  tc.add(std::move(ev));
}

}  // namespace ttlg::sim
