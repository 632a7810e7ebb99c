// Execution context handed to a kernel for one thread block.
//
// Kernels are written warp-synchronously: for each warp they build a
// LaneArray of per-lane element addresses and issue ONE collective
// load/store, which is how the hardware coalescer sees them. Blocks run
// in block-id order within a host-thread chunk (chunks may run on
// different host threads — see device.hpp) and warps run sequentially
// between barriers; the paper's kernels are data-race-free between
// barriers, so this is observationally equivalent to the parallel
// execution while keeping analysis exact.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "gpusim/coalescing.hpp"
#include "gpusim/counters.hpp"
#include "gpusim/dbuffer.hpp"
#include "gpusim/device_properties.hpp"
#include "gpusim/lane.hpp"
#include "gpusim/pattern_cache.hpp"
#include "gpusim/texture_cache.hpp"

namespace ttlg::sim {

enum class ExecMode {
  kFunctional,  ///< move data and count events (default)
  kCountOnly,   ///< count events only; loads return zero
};

class BlockCtx {
 public:
  /// `tex_log`, when non-null, switches the texture path to
  /// record-and-replay: tld() appends the byte addresses of touched
  /// lines to the log instead of probing (and mutating) the shared
  /// TextureCache. The launch engine replays the logs in block order
  /// after all blocks finish, so parallel chunked execution charges
  /// exactly the misses sequential execution would have.
  ///
  /// `pattern`, when non-null, memoizes the transaction / bank-conflict
  /// / texture-line analysis on the warp's normalized lane pattern.
  /// Cached answers equal recomputed ones, so every counter is
  /// bit-identical with or without it (see pattern_cache.hpp).
  BlockCtx(std::int64_t block_id, int block_threads, ExecMode mode,
           const DeviceProperties& props, LaunchCounters& ctr,
           std::byte* smem, std::int64_t smem_elems, TextureCache& tex,
           std::vector<std::int64_t>* tex_log = nullptr,
           PatternCache* pattern = nullptr)
      : block_id_(block_id),
        block_threads_(block_threads),
        mode_(mode),
        props_(props),
        ctr_(ctr),
        smem_(smem),
        smem_elems_(smem_elems),
        tex_(tex),
        tex_log_(tex_log),
        pattern_(pattern) {}

  std::int64_t block_id() const { return block_id_; }
  int block_dim() const { return block_threads_; }
  int num_warps() const { return block_threads_ / props_.warp_size; }
  const DeviceProperties& props() const { return props_; }
  ExecMode mode() const { return mode_; }

  /// __syncthreads analog (functional no-op under sequential warps).
  void sync() { ++ctr_.barriers; }

  /// Charge n integer mod/div "special instructions" (paper §V).
  void count_special(std::int64_t n) { ctr_.special_ops += n; }

  /// Charge n fused multiply-adds (compute kernels).
  void count_fma(std::int64_t n) { ctr_.fma_ops += n; }

  /// Bulk-charge a precomputed per-block counter delta (the plan-time
  /// specialization fast path, see core/stride_program.hpp). Launch
  /// geometry fields of `d` must be zero; only event counters may be set.
  void bulk_charge(const LaunchCounters& d) { ctr_ += d; }

  /// Bulk-charge global load/store transactions whose count was solved
  /// in closed form (affine whole-tile path) or replayed from a compiled
  /// stride program instead of per-lane analysis.
  void add_gld_transactions(std::int64_t n) { ctr_.gld_transactions += n; }
  void add_gst_transactions(std::int64_t n) { ctr_.gst_transactions += n; }

  /// Replay precomputed texture-line touches (absolute line ids, in the
  /// first-touch order collect_tex_lines would have produced). Honors
  /// the same record-and-replay switch as tld(): with a log attached the
  /// byte addresses are appended for deferred replay, otherwise the
  /// shared cache replays them (memoized when the previous operation
  /// replayed the same span — TextureCache::replay) and misses are
  /// charged. `lines` must outlive the launch unchanged. The
  /// tex_transactions charge itself belongs to the caller's bulk delta.
  void touch_tex_lines(std::span<const std::int64_t> lines) {
    if (tex_log_) {
      for (const std::int64_t line : lines)
        tex_log_->push_back(line * tex_.line_bytes());
    } else {
      ctr_.tex_misses += tex_.replay(lines);
    }
  }

  /// Warp-collective global (DRAM) load through the L1/L2 path.
  template <class T>
  void gld(const DeviceBuffer<T>& buf, const LaneArray& lanes,
           LaneValues<T>& vals) {
    const int active = lanes.active_count();
    if (active == 0) return;
    ctr_.gld_transactions +=
        pattern_ ? pattern_->transactions(lanes, buf.base_addr(), sizeof(T),
                                          props_.dram_transaction_bytes)
                 : count_transactions(lanes, buf.base_addr(), sizeof(T),
                                      props_.dram_transaction_bytes);
    ctr_.payload_bytes += static_cast<std::int64_t>(active) * sizeof(T);
    if (mode_ == ExecMode::kCountOnly) {
      vals.fill(T{});
      return;
    }
    TTLG_ASSERT(buf.valid(),
                "functional access through a storage-free (virtual) buffer");
    for (std::uint64_t m = lanes.active_mask(); m != 0; m &= m - 1) {
      const int l = std::countr_zero(m);
      const std::int64_t a = lanes[l];
      TTLG_ASSERT(a >= 0 && a < buf.size(), "global load out of bounds");
      vals[static_cast<std::size_t>(l)] = buf[a];
    }
  }

  /// Warp-collective global (DRAM) store. The buffer handle is a view;
  /// passing it by value lets const kernel objects store through it.
  template <class T>
  void gst(DeviceBuffer<T> buf, const LaneArray& lanes,
           const LaneValues<T>& vals) {
    const int active = lanes.active_count();
    if (active == 0) return;
    ctr_.gst_transactions +=
        pattern_ ? pattern_->transactions(lanes, buf.base_addr(), sizeof(T),
                                          props_.dram_transaction_bytes)
                 : count_transactions(lanes, buf.base_addr(), sizeof(T),
                                      props_.dram_transaction_bytes);
    ctr_.payload_bytes += static_cast<std::int64_t>(active) * sizeof(T);
    if (mode_ == ExecMode::kCountOnly) return;
    TTLG_ASSERT(buf.valid(),
                "functional access through a storage-free (virtual) buffer");
    for (std::uint64_t m = lanes.active_mask(); m != 0; m &= m - 1) {
      const int l = std::countr_zero(m);
      const std::int64_t a = lanes[l];
      TTLG_ASSERT(a >= 0 && a < buf.size(), "global store out of bounds");
      buf[a] = vals[static_cast<std::size_t>(l)];
    }
  }

  /// Warp-collective load through the texture/read-only path (offset
  /// indirection arrays). Hits stay on-chip; misses become DRAM lines.
  template <class T>
  void tld(const DeviceBuffer<T>& buf, const LaneArray& lanes,
           LaneValues<T>& vals) {
    if (!lanes.any_active()) return;
    // Distinct texture lines touched by this warp access, in first-touch
    // order (collect_tex_lines; memoized on the lane pattern when the
    // pattern cache is active).
    std::int64_t lines[kWarpSize];
    const int nlines =
        pattern_ ? pattern_->tex_lines(lanes, buf.base_addr(), sizeof(T),
                                       tex_.line_bytes(), lines)
                 : collect_tex_lines(lanes, buf.base_addr(), sizeof(T),
                                     tex_.line_bytes(), lines);
    ctr_.tex_transactions += nlines;
    if (tex_log_) {
      for (int s = 0; s < nlines; ++s)
        tex_log_->push_back(lines[s] * tex_.line_bytes());
    } else {
      for (int s = 0; s < nlines; ++s) {
        if (!tex_.access_line(lines[s])) ++ctr_.tex_misses;
      }
    }
    // NOTE: texture loads serve the offset indirection arrays, whose
    // values feed later ADDRESS computations — they must return real
    // data even in count-only mode or downstream coalescing/bank
    // analysis would see collapsed address streams.
    TTLG_ASSERT(buf.valid(), "texture buffers always have storage");
    for (std::uint64_t m = lanes.active_mask(); m != 0; m &= m - 1) {
      const int l = std::countr_zero(m);
      const std::int64_t a = lanes[l];
      TTLG_ASSERT(a >= 0 && a < buf.size(), "texture load out of bounds");
      vals[static_cast<std::size_t>(l)] = buf[a];
    }
  }

  /// Warp-collective shared-memory load. Offsets are ELEMENT offsets
  /// into the block's shared buffer; bank = offset % 32.
  template <class T>
  void sld(const LaneArray& lanes, LaneValues<T>& vals) {
    if (!lanes.any_active()) return;
    ++ctr_.smem_load_ops;
    ctr_.smem_bank_conflicts +=
        pattern_ ? pattern_->bank_conflicts(lanes, props_.shared_banks)
                 : count_bank_conflicts(lanes, props_.shared_banks);
    if (mode_ == ExecMode::kCountOnly) {
      vals.fill(T{});
      return;
    }
    const T* sm = reinterpret_cast<const T*>(smem_);
    for (std::uint64_t m = lanes.active_mask(); m != 0; m &= m - 1) {
      const int l = std::countr_zero(m);
      const std::int64_t a = lanes[l];
      TTLG_ASSERT(a >= 0 && a < smem_elems_, "shared load out of bounds");
      vals[static_cast<std::size_t>(l)] = sm[a];
    }
  }

  /// Warp-collective shared-memory store.
  template <class T>
  void sst(const LaneArray& lanes, const LaneValues<T>& vals) {
    if (!lanes.any_active()) return;
    ++ctr_.smem_store_ops;
    ctr_.smem_bank_conflicts +=
        pattern_ ? pattern_->bank_conflicts(lanes, props_.shared_banks)
                 : count_bank_conflicts(lanes, props_.shared_banks);
    if (mode_ == ExecMode::kCountOnly) return;
    T* sm = reinterpret_cast<T*>(smem_);
    for (std::uint64_t m = lanes.active_mask(); m != 0; m &= m - 1) {
      const int l = std::countr_zero(m);
      const std::int64_t a = lanes[l];
      TTLG_ASSERT(a >= 0 && a < smem_elems_, "shared store out of bounds");
      sm[a] = vals[static_cast<std::size_t>(l)];
    }
  }

 private:
  std::int64_t block_id_;
  int block_threads_;
  ExecMode mode_;
  const DeviceProperties& props_;
  LaunchCounters& ctr_;
  std::byte* smem_;
  std::int64_t smem_elems_;
  TextureCache& tex_;
  std::vector<std::int64_t>* tex_log_ = nullptr;
  PatternCache* pattern_ = nullptr;
};

}  // namespace ttlg::sim
