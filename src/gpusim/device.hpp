// The simulated GPU device: memory allocator + kernel launch engine.
//
// A kernel is any callable `void(BlockCtx&)`; Device::launch runs it for
// every block of the grid, aggregates hardware-event counters and feeds
// them to the timing model. See block_ctx.hpp for the execution model.
//
// Grid blocks are independent by construction, so large grids execute
// on the parallel block-execution engine (thread_pool.hpp): contiguous
// block chunks run on host threads with private counter shards that
// are reduced in block order, keeping results bit-identical to the
// sequential engine at any thread count (docs/parallel-execution.md).
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "gpusim/block_ctx.hpp"
#include "gpusim/chunk_classes.hpp"
#include "gpusim/fault_injector.hpp"
#include "gpusim/counters.hpp"
#include "gpusim/dbuffer.hpp"
#include "gpusim/device_properties.hpp"
#include "gpusim/thread_pool.hpp"
#include "gpusim/timing_model.hpp"
#include "telemetry/event.hpp"

namespace ttlg::sim {

struct LaunchConfig {
  std::int64_t grid_blocks = 1;
  /// First block id executed by this launch. Non-zero for windowed
  /// launches (the sharded executor runs contiguous block-id ranges of
  /// one logical grid on different devices); block ids handed to the
  /// kernel are ABSOLUTE, so a window executes exactly the same blocks
  /// it would inside the full launch.
  std::int64_t block_offset = 0;
  int block_threads = 256;
  /// Shared memory per block, in elements of size `elem_size`.
  std::int64_t shared_elems = 0;
  int elem_size = 8;
  std::string kernel_name;
  /// Optional block-equivalence classes for sampled counting: blocks of
  /// one class execute the same access pattern up to base offsets (full
  /// vs remainder chunks). Used only in count-only mode when the device
  /// has sampling enabled; without them every block runs.
  std::optional<ChunkClasses> classes;
  /// Kernel binds texture offset arrays (OD/OA); gates the `tex`
  /// fault-injection site so texture faults only hit texture users.
  bool uses_texture = false;
  /// When set, texture accesses are RECORDED (appended in block order as
  /// byte addresses) instead of probed against this launch's cache, and
  /// tex_misses stays 0 in the returned counters. A cross-launch owner
  /// (the sharded executor) replays the logs of all windows of one
  /// logical grid through a single TextureCache, which reproduces the
  /// unsharded miss count exactly. Ignored by sampled counting.
  std::vector<std::int64_t>* tex_capture = nullptr;
};

struct LaunchResult {
  LaunchCounters counters;
  TimingBreakdown timing;
  /// Simulated kernel execution time in seconds.
  double time_s = 0.0;
};

class Device {
 public:
  explicit Device(DeviceProperties props = DeviceProperties::tesla_k40c());

  const DeviceProperties& props() const { return props_; }

  ExecMode mode() const { return mode_; }
  void set_mode(ExecMode m) { mode_ = m; }

  /// Enable class-sampled counting: in count-only mode, launches with
  /// block classes execute only `samples` blocks per class and scale
  /// the counters by the class multiplicity. 0 disables (default).
  void set_sampling(int samples) { sampling_ = samples; }
  int sampling() const { return sampling_; }

  /// Host threads used to execute grid blocks (the parallel
  /// block-execution engine). 0 (default) = auto: TTLG_THREADS when
  /// set, else hardware_concurrency(). 1 disables parallel execution.
  /// Counter totals, output buffers and simulated times are
  /// bit-identical at every setting (see docs/parallel-execution.md).
  void set_num_threads(int n) { num_threads_ = n; }
  int num_threads() const { return num_threads_; }

  /// Always false: the simulator has no access-pattern memoization.
  /// perfbench/src/main.cpp:57 records it in the benchmark's config, and
  /// perfbench/ changes only together with the benchmark, so this stays
  /// until that file next changes.
  bool pattern_cache() const { return false; }

  /// Allocate `n` elements of T in simulated device memory.
  template <class T>
  DeviceBuffer<T> alloc(std::int64_t n) {
    TTLG_CHECK(n >= 0, "negative allocation size");
    const std::int64_t bytes = n * static_cast<std::int64_t>(sizeof(T));
    std::byte* p = allocate_bytes(bytes);
    const std::int64_t base = base_of(p);
    return DeviceBuffer<T>(base, reinterpret_cast<T*>(p), n);
  }

  /// Allocate a buffer handle WITHOUT backing storage: valid for
  /// count-only launches (which never dereference data) — lets benches
  /// sweep multi-GB tensors without touching host RAM. Functional-mode
  /// access through such a handle fails an assertion.
  template <class T>
  DeviceBuffer<T> alloc_virtual(std::int64_t n) {
    TTLG_CHECK(n >= 0, "negative allocation size");
    const std::int64_t base = register_virtual(
        n * static_cast<std::int64_t>(sizeof(T)));
    return DeviceBuffer<T>(base, nullptr, n);
  }

  /// Allocate and copy host data in (H2D copies are not part of kernel
  /// time, matching the paper's measurement methodology).
  template <class T>
  DeviceBuffer<T> alloc_copy(std::span<const T> host) {
    auto buf = alloc<T>(static_cast<std::int64_t>(host.size()));
    std::copy(host.begin(), host.end(), buf.data());
    return buf;
  }

  /// Release one allocation by its base address.
  template <class T>
  void free(const DeviceBuffer<T>& buf) {
    free_base(buf.base_addr());
  }

  /// Non-throwing free for owners that may outlive a free_all() (plans).
  /// Returns false when the buffer was already released.
  template <class T>
  bool try_free(const DeviceBuffer<T>& buf) {
    return try_free_base(buf.base_addr());
  }

  /// Release everything (between benchmark cases).
  void free_all();

  /// Bytes currently allocated on the simulated device.
  std::int64_t bytes_allocated() const {
    std::lock_guard<std::mutex> lk(alloc_mu_);
    return bytes_allocated_;
  }

  /// Run `kernel(BlockCtx&)` over the whole grid (or the cfg window) and
  /// return counters + simulated time: the one-member case of
  /// launch_batched, which holds the only block engine.
  template <class Kernel>
  LaunchResult launch(Kernel&& kernel, const LaunchConfig& cfg) {
    const auto same_kernel = [&kernel](std::int64_t) -> const auto& {
      return kernel;
    };
    return std::move(launch_batched(same_kernel, cfg, 1).front());
  }

  /// The block engine: execute `make_kernel(m)` for every member m in
  /// [0, num_members) over ONE super-grid of num_members *
  /// cfg.grid_blocks blocks — a single dispatch instead of num_members
  /// separate launches (the launch-overhead regime where small tensors
  /// lose). `cfg` describes one member's launch. Block ids handed to a
  /// member's kernel are the ids it would see in its own launch, so
  /// kernels need no batching awareness. A window (cfg.block_offset,
  /// ids stay absolute) and cfg.tex_capture are accepted only for a
  /// single member.
  ///
  /// Blocks run serially, on the parallel engine (run_parallel_segments)
  /// or, in count-only mode with sampling enabled and block classes
  /// supplied, sampled per member (run_sampled: a few representative
  /// blocks per equivalence class, counters scaled by multiplicity).
  /// The returned per-member LaunchResults — counters, timing and
  /// simulated times, texture misses included — are bit-identical to
  /// num_members individual one-member launches at every thread count:
  /// each member's texture accesses go through a cold cache, exactly
  /// as an individual launch starts. Fault-injection sites fire once,
  /// BEFORE any block runs, so a failed launch has no side effects
  /// (matching real launch failures).
  template <class KernelFactory>
  std::vector<LaunchResult> launch_batched(KernelFactory&& make_kernel,
                                           const LaunchConfig& cfg,
                                           std::int64_t num_members) {
    TTLG_CHECK(num_members > 0, "batched launch needs at least one member");
    TTLG_CHECK(num_members == 1 ||
                   (cfg.block_offset == 0 && cfg.tex_capture == nullptr),
               "fused multi-member launches take whole-grid member configs");
    validate(cfg);
    if (FaultInjector::global().armed()) check_injected_launch_faults(cfg);
    telemetry::Stage stage(telemetry::Site::kLaunch);

    std::vector<LaunchResult> results(static_cast<std::size_t>(num_members));
    for (LaunchResult& r : results) {
      r.counters.grid_blocks = cfg.grid_blocks;
      r.counters.block_threads = cfg.block_threads;
      r.counters.shared_bytes_per_block = cfg.shared_elems * cfg.elem_size;
    }
    std::vector<std::byte> smem(
        static_cast<std::size_t>(cfg.shared_elems * cfg.elem_size));
    TextureCache tex(props_.tex_cache_lines, props_.tex_line_bytes);
    if (mode_ == ExecMode::kCountOnly && sampling_ > 0 && cfg.classes) {
      for (std::int64_t m = 0; m < num_members; ++m) {
        tex.reset();  // each member starts cold
        run_sampled(make_kernel(m), cfg,
                    results[static_cast<std::size_t>(m)], smem, tex);
      }
    } else if (const int nthreads =
                   launch_parallelism(cfg.grid_blocks * num_members);
               nthreads > 1) {
      run_parallel_segments(make_kernel, cfg, results, tex, nthreads);
    } else {
      for (std::int64_t m = 0; m < num_members; ++m) {
        LaunchResult& r = results[static_cast<std::size_t>(m)];
        tex.reset();
        decltype(auto) kernel = make_kernel(m);
        for (std::int64_t b = cfg.block_offset;
             b < cfg.block_offset + cfg.grid_blocks; ++b) {
          BlockCtx blk(b, cfg.block_threads, mode_, props_, r.counters,
                       smem.data(), cfg.shared_elems, tex, cfg.tex_capture);
          kernel(blk);
        }
      }
    }
    for (LaunchResult& r : results) {
      r.timing = kernel_timing(props_, r.counters);
      r.time_s = r.timing.total_s;
    }
    emit_launch(stage, cfg, results);
    return results;
  }

 private:
  /// How many host threads this launch should use: 1 (serial) unless
  /// the grid is big enough to amortize the fan-out and the resolved
  /// thread knob asks for more.
  int launch_parallelism(std::int64_t grid_blocks) const {
    if (grid_blocks < kMinParallelBlocks) return 1;
    const int resolved = resolve_num_threads(num_threads_);
    return static_cast<int>(
        std::min<std::int64_t>(resolved, grid_blocks));
  }

  /// The parallel block-execution engine: one run_indexed dispatch over
  /// the super-grid [0, num_members * cfg.grid_blocks), split into
  /// contiguous chunks. A chunk runs blocks in order with a private
  /// (zero-initialized) shared-memory arena; whenever its block range
  /// enters a new member it opens a new SEGMENT (member id, counter
  /// shard, texture log) and keeps streaming — no return to the
  /// dispatcher between members. After the pool joins, segments are
  /// reduced in CHUNK order (fixed block order, never arrival order)
  /// and the texture logs are replayed in that order through `tex`,
  /// reset at each member boundary. Segments of one member are
  /// consecutive in chunk order and cover its blocks in ascending
  /// order, so counter totals, tex_misses included, are bit-identical
  /// to the serial engine at any thread count. Per-chunk smem arenas
  /// are observationally equivalent to the shared serial arena because
  /// every kernel writes its shared tile before reading it. With
  /// cfg.tex_capture set (one member only) the block-ordered log is
  /// handed to the caller instead of replayed; the caller owns the
  /// cross-window replay and the misses it produces.
  template <class KernelFactory>
  void run_parallel_segments(const KernelFactory& make_kernel,
                             const LaunchConfig& cfg,
                             std::vector<LaunchResult>& results,
                             TextureCache& tex, int nthreads) {
    const std::int64_t bpm = cfg.grid_blocks;
    const std::int64_t total =
        bpm * static_cast<std::int64_t>(results.size());
    // A few chunks per thread keeps the atomic-cursor load balancing
    // effective when block costs are skewed (remainder blocks).
    const std::int64_t nchunks = std::min<std::int64_t>(
        total, static_cast<std::int64_t>(nthreads) * 4);
    struct Segment {
      std::int64_t member = 0;
      LaunchCounters ctr;
      std::vector<std::int64_t> tex_log;
    };
    std::vector<std::vector<Segment>> chunks(
        static_cast<std::size_t>(nchunks));
    ThreadPool::global().run_indexed(
        nchunks, nthreads, [&](std::int64_t c) {
          const std::int64_t lo = total * c / nchunks;
          const std::int64_t hi = total * (c + 1) / nchunks;
          std::vector<std::byte> smem(
              static_cast<std::size_t>(cfg.shared_elems * cfg.elem_size));
          std::vector<Segment>& segs = chunks[static_cast<std::size_t>(c)];
          std::int64_t b = lo;
          while (b < hi) {
            const std::int64_t m = b / bpm;
            const std::int64_t base = m * bpm;
            const std::int64_t seg_hi = std::min(hi, base + bpm);
            Segment& sg = segs.emplace_back();
            sg.member = m;
            decltype(auto) kernel = make_kernel(m);
            // Every BlockCtx carries a log, so `tex` is never probed here.
            for (; b < seg_hi; ++b) {
              BlockCtx blk(cfg.block_offset + b - base, cfg.block_threads,
                           mode_, props_, sg.ctr, smem.data(),
                           cfg.shared_elems, tex, &sg.tex_log);
              kernel(blk);
            }
          }
        });
    std::int64_t replaying = -1;
    for (const std::vector<Segment>& segs : chunks) {
      for (const Segment& sg : segs) {
        LaunchCounters& ctr =
            results[static_cast<std::size_t>(sg.member)].counters;
        ctr += sg.ctr;
        if (cfg.tex_capture != nullptr) {
          cfg.tex_capture->insert(cfg.tex_capture->end(), sg.tex_log.begin(),
                                  sg.tex_log.end());
          continue;
        }
        if (sg.member != replaying) {
          replaying = sg.member;
          tex.reset();  // each member starts cold
        }
        for (const std::int64_t addr : sg.tex_log) {
          if (!tex.access(addr)) ++ctr.tex_misses;
        }
      }
    }
  }

  /// Class-sampled counting: per class, `sampling_` blocks spread
  /// evenly over the class's occurrences in the window (the s*n/samples-
  /// th, s = 0..samples-1) run after one warm-up run of the first, and
  /// their counters are scaled by the class multiplicity. Census and
  /// block choice are closed forms (ChunkClasses), so the cost is
  /// O(classes x samples) blocks whatever the grid size.
  template <class Kernel>
  void run_sampled(const Kernel& kernel, const LaunchConfig& cfg,
                   LaunchResult& res, std::vector<std::byte>& smem,
                   TextureCache& tex) {
    const ChunkClasses& classes = *cfg.classes;
    for (int c = 0; c < ChunkClasses::kCount; ++c) {
      const std::int64_t before = classes.count_below(c, cfg.block_offset);
      const std::int64_t n =
          classes.count_below(c, cfg.block_offset + cfg.grid_blocks) - before;
      if (n == 0) continue;
      const std::int64_t samples = std::min<std::int64_t>(sampling_, n);
      LaunchCounters cls;
      for (std::int64_t s = 0; s < samples; ++s) {
        const std::int64_t b = classes.nth(c, before + s * n / samples);
        if (s == 0) {
          // Warm the texture cache so per-class miss rates reflect the
          // steady state, not the launch's cold start.
          LaunchCounters discard;
          BlockCtx warm(b, cfg.block_threads, mode_, props_, discard,
                        smem.data(), cfg.shared_elems, tex);
          kernel(warm);
        }
        BlockCtx blk(b, cfg.block_threads, mode_, props_, cls, smem.data(),
                     cfg.shared_elems, tex);
        kernel(blk);
      }
      const double scale =
          static_cast<double>(n) / static_cast<double>(samples);
      auto scaled = [&](std::int64_t v) {
        return static_cast<std::int64_t>(static_cast<double>(v) * scale + 0.5);
      };
      res.counters.gld_transactions += scaled(cls.gld_transactions);
      res.counters.gst_transactions += scaled(cls.gst_transactions);
      res.counters.smem_load_ops += scaled(cls.smem_load_ops);
      res.counters.smem_store_ops += scaled(cls.smem_store_ops);
      res.counters.smem_bank_conflicts += scaled(cls.smem_bank_conflicts);
      res.counters.tex_transactions += scaled(cls.tex_transactions);
      res.counters.tex_misses += scaled(cls.tex_misses);
      res.counters.special_ops += scaled(cls.special_ops);
      res.counters.fma_ops += scaled(cls.fma_ops);
      res.counters.barriers += scaled(cls.barriers);
      res.counters.payload_bytes += scaled(cls.payload_bytes);
    }
  }

  /// The launch site, kept out of the template: ONE event per
  /// launch_batched call (sim.launches counts dispatches, which is
  /// exactly what fusion reduces). A fused multi-member dispatch is
  /// reported as kernel "<name>+batched" over the whole super-grid with
  /// the members' summed counters and times.
  void emit_launch(telemetry::Stage& stage, const LaunchConfig& cfg,
                   const std::vector<LaunchResult>& results) const;

  /// Raises for the `launch`/`tex` fault-injection sites (slow path,
  /// only entered when the injector is armed).
  void check_injected_launch_faults(const LaunchConfig& cfg) const;

  std::byte* allocate_bytes(std::int64_t bytes);
  std::int64_t register_virtual(std::int64_t bytes);
  std::int64_t base_of(const std::byte* p) const;
  void free_base(std::int64_t base);
  bool try_free_base(std::int64_t base);
  void validate(const LaunchConfig& cfg) const;

  /// Grids smaller than this run serially regardless of the thread
  /// knob: the pool fan-out costs more than the blocks themselves.
  static constexpr std::int64_t kMinParallelBlocks = 4;

  DeviceProperties props_;
  ExecMode mode_ = ExecMode::kFunctional;
  int sampling_ = 0;
  int num_threads_ = 0;  ///< 0 = auto (TTLG_THREADS / hardware)
  struct Allocation {
    std::unique_ptr<std::byte[]> storage;
    std::int64_t bytes = 0;
  };
  /// Serializes the allocator maps: plans and candidate measurement
  /// may allocate/free from concurrent tasks.
  mutable std::mutex alloc_mu_;
  std::map<std::int64_t, Allocation> allocations_;  // keyed by base addr
  std::map<const std::byte*, std::int64_t> base_by_ptr_;
  std::int64_t next_addr_ = 256;
  std::int64_t bytes_allocated_ = 0;
};

}  // namespace ttlg::sim
