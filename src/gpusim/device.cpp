#include "gpusim/device.hpp"

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

/// A fused dispatch's kernel name, built only by a sink that takes it.
struct BatchedName {
  std::string_view kernel;
  std::string to_string() const { return std::string(kernel) + "+batched"; }
};

}  // namespace

Device::Device(DeviceProperties props) : props_(std::move(props)) {
  // An inconsistent descriptor (e.g. a per-block shared-memory limit
  // above the per-SM capacity) would silently corrupt every timing and
  // occupancy computation downstream — reject it at construction.
  props_.validate();
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

void Device::emit_launch(telemetry::Stage& stage, const LaunchConfig& cfg,
                         const std::vector<LaunchResult>& results) const {
  const std::string_view kernel =
      cfg.kernel_name.empty() ? std::string_view("kernel") : cfg.kernel_name;
  const BatchedName batched{kernel};
  const LaunchResult* res = &results.front();
  LaunchResult agg;
  if (results.size() > 1) {
    for (const LaunchResult& r : results) {
      agg.counters += r.counters;
      agg.time_s += r.time_s;
    }
    agg.counters.block_threads = cfg.block_threads;
    agg.counters.shared_bytes_per_block = cfg.shared_elems * cfg.elem_size;
    agg.timing = kernel_timing(props_, agg.counters);
    res = &agg;
  }
  const LaunchCounters& c = res->counters;
  const TimingBreakdown& t = res->timing;
  stage.emit(
      {results.size() > 1 ? telemetry::Field("kernel", batched)
                          : telemetry::Field("kernel", kernel),
       {"gld_transactions", c.gld_transactions},
       {"gst_transactions", c.gst_transactions},
       {"smem_load_ops", c.smem_load_ops}, {"smem_store_ops", c.smem_store_ops},
       {"smem_bank_conflicts", c.smem_bank_conflicts},
       {"tex_transactions", c.tex_transactions}, {"tex_misses", c.tex_misses},
       {"special_ops", c.special_ops}, {"fma_ops", c.fma_ops},
       {"grid_blocks", c.grid_blocks}, {"block_threads", c.block_threads},
       {"shared_bytes_per_block", c.shared_bytes_per_block},
       {"barriers", c.barriers}, {"payload_bytes", c.payload_bytes},
       {"dram_transactions", c.dram_transactions()},
       {"coalescing_efficiency", c.coalescing_efficiency()},
       {"simulated_time_us", res->time_s * 1e6}, {"occupancy", t.occupancy},
       {"waves", t.waves}, {"dram_us", t.dram_s * 1e6},
       {"smem_us", t.smem_s * 1e6}, {"alu_us", t.alu_s * 1e6},
       {"tex_us", t.tex_s * 1e6},
       {"mode", mode_ == ExecMode::kFunctional ? "functional" : "count_only"},
       {"simulated_us", res->time_s * 1e6}, {"time_s", res->time_s}});
}

}  // namespace ttlg::sim
