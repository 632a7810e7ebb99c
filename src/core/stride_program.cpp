#include "core/stride_program.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdlib>
#include <string_view>

#include "common/error.hpp"
#include "core/analysis.hpp"
#include "core/kernels.hpp"
#include "core/launch_helpers.hpp"
#include "gpusim/block_ctx.hpp"
#include "gpusim/coalescing.hpp"
#include "telemetry/metrics.hpp"

namespace ttlg {

const char* to_string(SpecTier tier) {
  switch (tier) {
    case SpecTier::kGeneric: return "generic";
    case SpecTier::kStrideProgram: return "stride_program";
    case SpecTier::kTemplated: return "templated";
    case SpecTier::kAffineBulk: return "affine_bulk";
  }
  return "unknown";
}

std::int64_t ClassProgram::footprint_bytes() const {
  return static_cast<std::int64_t>(
      gops.size() * sizeof(SpecGlobalOp) + byte_deltas.size() * 8 +
      tex_lines.size() * 8 + (copy_dst.size() + copy_src.size()) * 8 +
      run_copies.size() * sizeof(SpecRunCopy) +
      (gld_phase.size() + gst_phase.size()) * 4);
}

std::int64_t SpecProgram::footprint_bytes() const {
  std::int64_t total = static_cast<std::int64_t>(sizeof(SpecProgram));
  for (const ClassProgram& c : cls) total += c.footprint_bytes();
  return total;
}

bool specialization_enabled_by_env() {
  const char* env = std::getenv("TTLG_SPECIALIZE");
  return env == nullptr || std::string_view(env) != "0";
}

namespace {

using sim::kWarpSize;

/// Why a plan stays generic; each reason is a plan.spec.reject.* counter.
enum class Reject {
  kLayout,
  kUntraceable,
  kClassMismatch,
  kFootprint,
  kSelfCheck,
  kWidth,
};

void count_reject(Reject why) {
  auto& reg = telemetry::MetricsRegistry::global();
  static telemetry::CounterRef counters[] = {
      {reg, "plan.spec.reject.layout"},
      {reg, "plan.spec.reject.untraceable"},
      {reg, "plan.spec.reject.class_mismatch"},
      {reg, "plan.spec.reject.footprint"},
      {reg, "plan.spec.reject.self_check"},
      {reg, "plan.spec.reject.width"},
  };
  counters[static_cast<int>(why)].inc();
}

// Synthetic device base addresses for the in/out views the recorder and
// the build-time self-check run against. 256-byte aligned like real
// Device allocations; recorded offsets are base-relative, so any aligned
// base yields the same program, and the self-check replays against the
// very same bases it records with.
constexpr std::int64_t kRecInBase = std::int64_t{1} << 40;
constexpr std::int64_t kRecOutBase = std::int64_t{3} << 40;

bool counters_equal(const sim::LaunchCounters& a, const sim::LaunchCounters& b) {
  return a.gld_transactions == b.gld_transactions &&
         a.gst_transactions == b.gst_transactions &&
         a.smem_load_ops == b.smem_load_ops &&
         a.smem_store_ops == b.smem_store_ops &&
         a.smem_bank_conflicts == b.smem_bank_conflicts &&
         a.tex_transactions == b.tex_transactions &&
         a.tex_misses == b.tex_misses && a.special_ops == b.special_ops &&
         a.fma_ops == b.fma_ops && a.barriers == b.barriers &&
         a.payload_bytes == b.payload_bytes;
}

bool gops_equal(const SpecGlobalOp& a, const SpecGlobalOp& b) {
  return a.is_load == b.is_load && a.is_run == b.is_run && a.rel0 == b.rel0 &&
         a.nlanes == b.nlanes && a.delta_off == b.delta_off &&
         a.delta_len == b.delta_len;
}

/// Calls f(l) for every active lane in ascending order until f returns
/// false; returns whether it ran to the end. Nearly every kernel access
/// activates a lane prefix [0, n), which gets a plain counted loop.
template <class F>
bool for_each_lane(const sim::LaneArray& lanes, F&& f) {
  const std::uint64_t mask = lanes.active_mask();
  if ((mask & (mask + 1)) == 0) {
    const int n = std::popcount(mask);
    for (int l = 0; l < n; ++l)
      if (!f(l)) return false;
    return true;
  }
  for (std::uint64_t m = mask; m != 0; m &= m - 1)
    if (!f(std::countr_zero(m))) return false;
  return true;
}

/// Whether every active lane indexes [0, size).
bool in_bounds(const sim::LaneArray& lanes, std::int64_t size) {
  if (lanes.is_run())
    return lanes[0] >= 0 && lanes[0] + lanes.active_count() <= size;
  return for_each_lane(lanes,
                       [&](int l) { return lanes[l] >= 0 && lanes[l] < size; });
}

/// Kernel-facing context that compiles one representative block's
/// address stream instead of simulating it. Presents the same surface as
/// sim::BlockCtx (the kernels are templated on the context), but:
///   - global accesses are recorded as base-relative runs / offset
///     tables and class-constant counters accumulate into const_delta;
///   - dataflow is shadowed (gld tags LaneValues with source element
///     indices, sst/sld move the tags through a shadow smem image, gst
///     emits copy pairs), producing the fused copy table;
///   - texture loads record the touched lines;
///   - every access is also forwarded to `truth`, a real count-only
///     BlockCtx that counts the block on its own and returns the REAL
///     offset data texture loads must yield (their values feed later
///     address computations). Its counters and texture log are the
///     ground truth the finished program's replay is checked against,
///     captured in the same kernel pass.
/// Without `ref` the context builds the class program (the class's first
/// representative). With `ref` it checks the global accesses, offset
/// tables and copy pairs against the first representative's program as
/// they are produced and stops at the first divergence: two
/// representatives of one class must record identical programs (the
/// class-invariance obligation), since everything stored is base-relative
/// or class-invariant. The rest of the program, the counter delta and the
/// texture lines, is not re-derived for later representatives: the
/// self-check replays the first representative's program against every
/// representative's own ground truth, which demands exactly that
/// equality.
/// Any access the shadow cannot explain (out-of-range smem index, a
/// store of untagged values, an unexpected buffer), or a divergence from
/// `ref`, flips ok() to false; recording and forwarding stop there and
/// the plan stays generic.
class RecordingCtx {
 public:
  RecordingCtx(std::int64_t block_id, int block_threads,
               const sim::DeviceProperties& props, std::int64_t smem_elems,
               std::int64_t blk_in_base, std::int64_t blk_out_base,
               std::vector<std::int64_t>& shadow, const ClassProgram* ref,
               sim::BlockCtx& truth)
      : block_id_(block_id),
        block_threads_(block_threads),
        props_(props),
        smem_elems_(smem_elems),
        blk_in_base_(blk_in_base),
        blk_out_base_(blk_out_base),
        shadow_(shadow),
        ref_(ref),
        truth_(truth) {
    shadow_.assign(static_cast<std::size_t>(smem_elems), -1);
  }

  std::int64_t block_id() const { return block_id_; }
  int block_dim() const { return block_threads_; }
  int num_warps() const { return block_threads_ / props_.warp_size; }
  const sim::DeviceProperties& props() const { return props_; }
  sim::ExecMode mode() const { return sim::ExecMode::kCountOnly; }

  void sync() {
    ++prog_.const_delta.barriers;
    truth_.sync();
  }
  void count_special(std::int64_t n) {
    prog_.const_delta.special_ops += n;
    truth_.count_special(n);
  }
  void count_fma(std::int64_t n) {
    prog_.const_delta.fma_ops += n;
    truth_.count_fma(n);
  }

  /// Close the recording. Checking against `ref` also demands that the
  /// whole reference was reproduced.
  bool finish() {
    if (ok_ && ref_ != nullptr) {
      ok_ = gop_i_ == ref_->gops.size() && copy_i_ == ref_->copy_dst.size();
    }
    return ok_;
  }

  ClassProgram take_program() {
    prog_.present = true;
    return std::move(prog_);
  }

  template <class T>
  void gld(const sim::DeviceBuffer<T>& buf, const sim::LaneArray& lanes,
           sim::LaneValues<T>& vals) {
    const int active = lanes.active_count();
    if (!ok_ || active == 0) return;
    if (buf.base_addr() != kRecInBase) {
      // Only identity-epilogue plans specialize, so the sole global
      // load target is the input buffer (no beta read-back of out).
      ok_ = false;
      return;
    }
    record_gop(true, lanes, blk_in_base_, sizeof(T));
    prog_.const_delta.payload_bytes +=
        static_cast<std::int64_t>(active) * static_cast<std::int64_t>(sizeof(T));
    Tags& src = tags_of(&vals);
    if (lanes.is_run()) {
      const std::int64_t s0 = lanes[0] - blk_in_base_;
      for (int l = 0; l < active; ++l) src[static_cast<std::size_t>(l)] = s0 + l;
      std::fill(src.begin() + active, src.end(), -1);
    } else {
      src.fill(-1);
      for_each_lane(lanes, [&](int l) {
        src[static_cast<std::size_t>(l)] = lanes[l] - blk_in_base_;
        return true;
      });
    }
    truth_.gld(buf, lanes, vals);
  }

  template <class T>
  void gst(sim::DeviceBuffer<T> buf, const sim::LaneArray& lanes,
           const sim::LaneValues<T>& vals) {
    const int active = lanes.active_count();
    if (!ok_ || active == 0) return;
    if (buf.base_addr() != kRecOutBase) {
      ok_ = false;
      return;
    }
    record_gop(false, lanes, blk_out_base_, sizeof(T));
    prog_.const_delta.payload_bytes +=
        static_cast<std::int64_t>(active) * static_cast<std::int64_t>(sizeof(T));
    // A store of a value whose provenance the shadow lost (untagged)
    // cannot be compiled into a copy table.
    const Tags* src = find_tags(&vals);
    if (src == nullptr) {
      ok_ = false;
      return;
    }
    std::int64_t dst[kWarpSize], from[kWarpSize];
    int n = 0;
    for_each_lane(lanes, [&](int l) {
      dst[n] = lanes[l] - blk_out_base_;
      from[n++] = (*src)[static_cast<std::size_t>(l)];
      return true;
    });
    ok_ = std::find(from, from + n, -1) == from + n && put_copies(dst, from, n);
    if (ok_) truth_.gst(buf, lanes, vals);
  }

  template <class T>
  void tld(const sim::DeviceBuffer<T>& buf, const sim::LaneArray& lanes,
           sim::LaneValues<T>& vals) {
    if (!ok_ || !lanes.any_active()) return;
    if (ref_ == nullptr) {
      std::int64_t lines[kWarpSize];
      const int nlines = sim::collect_tex_lines(
          lanes, buf.base_addr(), sizeof(T), props_.tex_line_bytes, lines);
      prog_.const_delta.tex_transactions += nlines;
      prog_.tex_lines.insert(prog_.tex_lines.end(), lines, lines + nlines);
    }
    // Offset values feed later address computations, so they must be
    // real data: the ground-truth context loads them. It asserts the
    // bounds, so they are checked here first.
    ok_ = buf.valid() && in_bounds(lanes, buf.size());
    if (ok_) truth_.tld(buf, lanes, vals);
  }

  template <class T>
  void sld(const sim::LaneArray& lanes, sim::LaneValues<T>& vals) {
    if (!ok_ || !lanes.any_active()) return;
    if (!smem_op(lanes, prog_.const_delta.smem_load_ops)) {
      ok_ = false;
      return;
    }
    Tags& src = tags_of(&vals);
    if (lanes.is_run()) {
      const int n = lanes.active_count();
      std::copy_n(shadow_.begin() + lanes[0], n, src.begin());
      std::fill(src.begin() + n, src.end(), -1);
    } else {
      src.fill(-1);
      for_each_lane(lanes, [&](int l) {
        src[static_cast<std::size_t>(l)] =
            shadow_[static_cast<std::size_t>(lanes[l])];
        return true;
      });
    }
    truth_.sld(lanes, vals);
  }

  template <class T>
  void sst(const sim::LaneArray& lanes, const sim::LaneValues<T>& vals) {
    if (!ok_ || !lanes.any_active()) return;
    if (!smem_op(lanes, prog_.const_delta.smem_store_ops)) {
      ok_ = false;
      return;
    }
    const Tags* src = find_tags(&vals);
    if (lanes.is_run() && src != nullptr) {
      std::copy_n(src->begin(), lanes.active_count(),
                  shadow_.begin() + lanes[0]);
    } else {
      for_each_lane(lanes, [&](int l) {
        shadow_[static_cast<std::size_t>(lanes[l])] =
            src == nullptr ? -1 : (*src)[static_cast<std::size_t>(l)];
        return true;
      });
    }
    truth_.sst(lanes, vals);
  }

 private:
  using Tags = std::array<std::int64_t, kWarpSize>;

  /// Source tags for an in-flight LaneValues, keyed by object address.
  /// Recording is strictly sequential, so stack-slot reuse is safe: every
  /// store is preceded by the load that (re)tags its operand. A kernel
  /// keeps only a handful of LaneValues live, so a flat list beats any
  /// map.
  Tags& tags_of(const void* key) {
    for (TaggedValues& t : tags_)
      if (t.key == key) return t.src;
    tags_.push_back({key, {}});
    return tags_.back().src;
  }
  const Tags* find_tags(const void* key) const {
    for (const TaggedValues& t : tags_)
      if (t.key == key) return &t.src;
    return nullptr;
  }

  /// Bounds-check one shared-memory access and, when recording, charge
  /// it: one op into `ops` plus its bank conflicts.
  bool smem_op(const sim::LaneArray& lanes, std::int64_t& ops) {
    if (!in_bounds(lanes, smem_elems_)) return false;
    if (ref_ == nullptr) {
      ++ops;
      prog_.const_delta.smem_bank_conflicts +=
          sim::count_bank_conflicts(lanes, props_.shared_banks);
    }
    return true;
  }

  /// Classify and record one global access. Transaction counts are NOT
  /// recorded — they depend on the block base, so execution recomputes
  /// them per block from the run/offset shape in closed form.
  void record_gop(bool is_load, const sim::LaneArray& lanes,
                  std::int64_t rel_base, std::int64_t elem_size) {
    SpecGlobalOp op;
    op.is_load = is_load;
    if (lanes.is_run()) {
      op.rel0 = lanes[0] - rel_base;
      op.nlanes = lanes.active_count();
      put_gop(op, nullptr);
      return;
    }
    std::array<std::int64_t, kWarpSize> addrs{};
    int n = 0;
    bool ascending = true;
    bool consecutive = true;
    for_each_lane(lanes, [&](int l) {
      const std::int64_t a = lanes[l];
      if (n > 0) {
        ascending = ascending && addrs[static_cast<std::size_t>(n - 1)] <= a;
        consecutive = consecutive && a == addrs[0] + n;
      }
      addrs[static_cast<std::size_t>(n++)] = a;
      return true;
    });
    if (consecutive) {
      // Lanes hold a0, a0+1, ... in lane order: a run without sorting.
      op.rel0 = addrs[0] - rel_base;
      op.nlanes = n;
      put_gop(op, nullptr);
      return;
    }
    if (!ascending) std::sort(addrs.begin(), addrs.begin() + n);
    const int nu = static_cast<int>(
        std::unique(addrs.begin(), addrs.begin() + n) - addrs.begin());
    op.nlanes = nu;
    // Transaction counts are functions of the address SET, so a sorted
    // consecutive range is "a run" regardless of lane order.
    if (addrs[static_cast<std::size_t>(nu - 1)] - addrs[0] + 1 == nu) {
      op.rel0 = addrs[0] - rel_base;
      put_gop(op, nullptr);
      return;
    }
    op.is_run = false;
    op.delta_len = nu;
    for (int i = 0; i < nu; ++i) {
      auto& a = addrs[static_cast<std::size_t>(i)];
      a = (a - rel_base) * elem_size;
    }
    put_gop(op, addrs.data());
  }

  /// Append (or check) one global op; `deltas` holds the byte offsets of
  /// a scattered op.
  void put_gop(SpecGlobalOp op, const std::int64_t* deltas) {
    if (!op.is_run) {
      op.delta_off = static_cast<std::int32_t>(ndeltas_);
      ndeltas_ += op.delta_len;
    }
    if (ref_ == nullptr) {
      prog_.gops.push_back(op);
      if (!op.is_run)
        prog_.byte_deltas.insert(prog_.byte_deltas.end(), deltas,
                                 deltas + op.delta_len);
      return;
    }
    // Equal ops share delta_off/delta_len, so the slice is in range.
    if (gop_i_ >= ref_->gops.size() || !gops_equal(op, ref_->gops[gop_i_++]) ||
        (!op.is_run &&
         !std::equal(deltas, deltas + op.delta_len,
                     ref_->byte_deltas.begin() + op.delta_off)))
      ok_ = false;
  }

  /// Append (or check) the copy pairs out[dst[i]] = in[src[i]] of one
  /// warp store. False on a divergence from `ref`.
  bool put_copies(const std::int64_t* dst, const std::int64_t* src, int n) {
    if (ref_ == nullptr) {
      prog_.copy_dst.insert(prog_.copy_dst.end(), dst, dst + n);
      prog_.copy_src.insert(prog_.copy_src.end(), src, src + n);
      return true;
    }
    if (copy_i_ + static_cast<std::size_t>(n) > ref_->copy_dst.size())
      return false;
    const std::int64_t* rd = ref_->copy_dst.data() + copy_i_;
    const std::int64_t* rs = ref_->copy_src.data() + copy_i_;
    copy_i_ += static_cast<std::size_t>(n);
    bool same = true;
    for (int i = 0; i < n; ++i) same &= (rd[i] == dst[i]) & (rs[i] == src[i]);
    return same;
  }

  struct TaggedValues {
    const void* key;
    Tags src;
  };

  std::int64_t block_id_;
  int block_threads_;
  const sim::DeviceProperties& props_;
  std::int64_t smem_elems_;
  std::int64_t blk_in_base_;
  std::int64_t blk_out_base_;
  /// Shadow smem: source element index (into the input) currently held
  /// by each shared slot, or -1 for untagged.
  std::vector<std::int64_t>& shadow_;
  const ClassProgram* ref_;
  sim::BlockCtx& truth_;
  /// The program being built (unused with `ref`).
  ClassProgram prog_;
  std::vector<TaggedValues> tags_;
  std::int64_t ndeltas_ = 0;
  /// Read positions in `ref` (gops, copy pairs).
  std::size_t gop_i_ = 0;
  std::size_t copy_i_ = 0;
  bool ok_ = true;
};

const GridDecoder& decoder_for(const KernelSelection& sel) {
  switch (sel.schema) {
    case Schema::kFviMatchSmall: return sel.fvi_small.decoder;
    case Schema::kOrthogonalDistinct: return sel.od.decoder;
    case Schema::kOrthogonalArbitrary: return sel.oa.decoder;
    default: return sel.fvi_large.decoder;  // kCopy / kFviMatchLarge
  }
}

std::int64_t smem_elems_for(const KernelSelection& sel) {
  switch (sel.schema) {
    case Schema::kFviMatchSmall: return sel.fvi_small.smem_elems;
    case Schema::kOrthogonalDistinct: return 32 * sel.od.tile_pitch;
    case Schema::kOrthogonalArbitrary: return sel.oa.smem_elems();
    default: return 0;
  }
}

int block_threads_for(const KernelSelection& sel) {
  switch (sel.schema) {
    case Schema::kFviMatchSmall: return sel.fvi_small.block_threads;
    case Schema::kOrthogonalDistinct: return sel.od.block_threads;
    case Schema::kOrthogonalArbitrary: return sel.oa.block_threads;
    default: return sel.fvi_large.block_threads;
  }
}

Index grid_blocks_for(const KernelSelection& sel) {
  switch (sel.schema) {
    case Schema::kFviMatchSmall: return sel.fvi_small.grid_blocks;
    case Schema::kOrthogonalDistinct: return sel.od.grid_blocks;
    case Schema::kOrthogonalArbitrary: return sel.oa.grid_blocks;
    default: return sel.fvi_large.grid_blocks;
  }
}

/// Run the planned generic kernel body for one block against any
/// context (the recorder or a real BlockCtx for the self-check), with
/// the identity epilogue and synthetic in/out views. Texture views are
/// bound to the plan's REAL offset arrays at the plan's device
/// addresses so recorded lines match execution.
template <class T, class Ctx>
void run_generic_block(const SpecBuildInput& bi, Ctx& ctx) {
  const KernelSelection& sel = *bi.sel;
  const Index vol = bi.problem->volume();
  const sim::DeviceBuffer<T> in(kRecInBase, nullptr, vol);
  const sim::DeviceBuffer<T> out(kRecOutBase, nullptr, vol);
  switch (sel.schema) {
    case Schema::kFviMatchSmall:
      FviSmallKernel<T>{sel.fvi_small, in, out}(ctx);
      return;
    case Schema::kOrthogonalDistinct: {
      const OdConfig& k = sel.od;
      const sim::DeviceBuffer<Index> t0(
          bi.tex_base[0], const_cast<Index*>(k.in_offset.data()),
          static_cast<Index>(k.in_offset.size()));
      const sim::DeviceBuffer<Index> t1(
          bi.tex_base[1], const_cast<Index*>(k.out_offset.data()),
          static_cast<Index>(k.out_offset.size()));
      OdKernel<T>{k, in, out, t0, t1}(ctx);
      return;
    }
    case Schema::kOrthogonalArbitrary: {
      const OaConfig& k = sel.oa;
      const sim::DeviceBuffer<Index> t0(
          bi.tex_base[0], const_cast<Index*>(k.input_offset.data()),
          static_cast<Index>(k.input_offset.size()));
      const sim::DeviceBuffer<Index> t1(
          bi.tex_base[1], const_cast<Index*>(k.output_offset.data()),
          static_cast<Index>(k.output_offset.size()));
      const sim::DeviceBuffer<Index> t2(
          bi.tex_base[2], const_cast<Index*>(k.sm_out_offset.data()),
          static_cast<Index>(k.sm_out_offset.size()));
      OaKernel<T>{k, in, out, t0, t1, t2}(ctx);
      return;
    }
    default:
      FviLargeKernel<T>{sel.fvi_large, in, out}(ctx);
      return;
  }
}

/// Per-block transaction replay used by the build-time self-check (the
/// execution path in spec_exec.hpp carries the same arithmetic).
sim::LaunchCounters replay_counters(const SpecProgram& prog,
                                    const ClassProgram& cp,
                                    const GridEntry& e) {
  sim::LaunchCounters c = cp.const_delta;
  const std::int64_t es = prog.elem_size;
  const std::int64_t in0 = kRecInBase + e.in_base * es;
  const std::int64_t out0 = kRecOutBase + e.out_base * es;
  for (const SpecGlobalOp& op : cp.gops) {
    const std::int64_t base = op.is_load ? in0 : out0;
    const std::int64_t t =
        op.is_run
            ? sim::count_run_transactions(base + op.rel0 * es, op.nlanes,
                                          prog.elem_size, prog.txn_bytes)
            : sim::count_sorted_offset_transactions(
                  base, cp.byte_deltas.data() + op.delta_off, op.delta_len,
                  prog.txn_bytes);
    (op.is_load ? c.gld_transactions : c.gst_transactions) += t;
  }
  c.grid_blocks = 0;  // geometry belongs to the launch engine
  return c;
}

/// Phase table over one direction's accesses of an affine class; empty
/// when the class has no access in that direction.
std::vector<std::int32_t> phase_table(const ClassProgram& cp, bool loads,
                                      int elem_size, std::int64_t txn) {
  std::vector<RunAccess> runs;
  for (const SpecGlobalOp& op : cp.gops)
    if (op.is_load == loads) runs.push_back({op.rel0, op.nlanes});
  return build_phase_table(runs, elem_size, txn);
}

/// Compute the copy table's bounds and compress it into (dst, src, n)
/// segments when they are long enough that the per-segment overhead
/// beats per-element indexing (runs*8 <= n). One pass counts the
/// segments and the bounds; the segment table is built only when kept.
void compress_copies(ClassProgram& cp) {
  const std::size_t n = cp.copy_dst.size();
  if (n == 0) return;
  const std::int64_t* dst = cp.copy_dst.data();
  const std::int64_t* src = cp.copy_src.data();
  std::size_t runs = 1;
  cp.min_src = cp.max_src = src[0];
  cp.min_dst = cp.max_dst = dst[0];
  for (std::size_t i = 1; i < n; ++i) {
    runs += (dst[i] != dst[i - 1] + 1) | (src[i] != src[i - 1] + 1);
    cp.min_src = std::min(cp.min_src, src[i]);
    cp.max_src = std::max(cp.max_src, src[i]);
    cp.min_dst = std::min(cp.min_dst, dst[i]);
    cp.max_dst = std::max(cp.max_dst, dst[i]);
  }
  cp.use_run_copies = runs * 8 <= n;
  if (!cp.use_run_copies) return;
  cp.run_copies.reserve(runs);
  SpecRunCopy cur{dst[0], src[0], 1};
  for (std::size_t i = 1; i < n; ++i) {
    if (dst[i] == cur.dst0 + cur.n && src[i] == cur.src0 + cur.n) {
      ++cur.n;
    } else {
      cp.run_copies.push_back(cur);
      cur = SpecRunCopy{dst[i], src[i], 1};
    }
  }
  cp.run_copies.push_back(cur);
  cp.copy_dst = {};
  cp.copy_src = {};
}

/// Representative block ids for class c (1-3 blocks): first match, a
/// second one varying a chunk coordinate when the class has more than
/// one, and one in the next outer iteration when the grid repeats.
/// Empty means the class never occurs in this grid.
std::vector<Index> class_rep_bids(int c, const SpecProgram& p, Index s0,
                                  Index s1, Index outer) {
  const auto cands = [](bool partial, Index chunks, Index rem) {
    std::vector<Index> v;
    if (partial) {
      if (rem != 0) v.push_back(chunks - 1);
      return v;
    }
    const Index lim = rem != 0 ? chunks - 1 : chunks;
    for (Index i = 0; i < lim && v.size() < 2; ++i) v.push_back(i);
    return v;
  };
  const auto i0s = cands((c & 1) != 0, p.a_chunks, p.a_rem);
  const auto i1s = cands((c & 2) != 0, p.b_chunks, p.b_rem);
  if (i0s.empty() || i1s.empty()) return {};
  const auto bid = [&](Index i0, Index i1, Index o) {
    return i0 + s0 * (i1 + s1 * o);
  };
  std::vector<Index> out{bid(i0s[0], i1s[0], 0)};
  if (i0s.size() > 1) out.push_back(bid(i0s[1], i1s[0], 0));
  else if (i1s.size() > 1) out.push_back(bid(i0s[0], i1s[1], 0));
  if (outer > 1) out.push_back(bid(i0s[0], i1s[0], 1));
  return out;
}

/// Ground truth for one representative block: what a real count-only
/// BlockCtx counted for it, and its texture-line log.
struct RepTruth {
  GridEntry entry;
  sim::LaunchCounters ctr;
  std::vector<std::int64_t> tex_log;
};

/// One generic-kernel pass over representative `bid`: records the class
/// program into `*out` (no `ref`) or checks it against `ref`, and fills
/// `truth`. False when the block is untraceable or diverges from `ref`.
template <class T>
bool record_rep(const SpecBuildInput& bi, Index bid, const ClassProgram* ref,
                ClassProgram* out, RepTruth& truth,
                std::vector<std::int64_t>& shadow, sim::TextureCache& tex) {
  const KernelSelection& sel = *bi.sel;
  truth.entry = decoder_for(sel).decode(bid);
  const int threads = block_threads_for(sel);
  const std::int64_t smem = smem_elems_for(sel);
  // Texture record-and-replay mode: the block's line touches go to the
  // log, the cache itself is never probed.
  if (ref != nullptr) truth.tex_log.reserve(ref->tex_lines.size());
  sim::BlockCtx blk(bid, threads, sim::ExecMode::kCountOnly, *bi.props,
                    truth.ctr, nullptr, smem, tex, &truth.tex_log, nullptr);
  RecordingCtx rc(bid, threads, *bi.props, smem, truth.entry.in_base,
                  truth.entry.out_base, shadow, ref, blk);
  run_generic_block<T>(bi, rc);
  truth.ctr.grid_blocks = 0;
  if (!rc.finish()) return false;
  if (out != nullptr) *out = rc.take_program();
  return true;
}

/// Ground-truth check: the finished program's replay for a representative
/// must reproduce exactly the counters and texture-line sequence the
/// generic kernel produced for it on a real count-only BlockCtx. For
/// affine classes the phase tables must agree with the per-op replay as
/// well.
bool self_check(const SpecProgram& prog, const RepTruth& t,
                const sim::DeviceProperties& props) {
  const GridEntry& e = t.entry;
  const ClassProgram& cp = prog.cls[prog.class_of(e)];
  if (!cp.present) return false;

  const sim::LaunchCounters got = replay_counters(prog, cp, e);
  if (!counters_equal(t.ctr, got)) return false;

  if (t.tex_log.size() != cp.tex_lines.size()) return false;
  for (std::size_t i = 0; i < t.tex_log.size(); ++i) {
    if (t.tex_log[i] != cp.tex_lines[i] * props.tex_line_bytes) return false;
  }

  if (cp.affine && !(cp.gld_phase.empty() && cp.gst_phase.empty())) {
    const std::int64_t es = prog.elem_size;
    const std::int64_t pm = prog.txn_bytes - 1;
    std::int64_t ld = 0, st = 0;
    if (!cp.gld_phase.empty())
      ld = cp.gld_phase[static_cast<std::size_t>((kRecInBase + e.in_base * es) & pm)];
    if (!cp.gst_phase.empty())
      st = cp.gst_phase[static_cast<std::size_t>((kRecOutBase + e.out_base * es) & pm)];
    if (ld != got.gld_transactions - cp.const_delta.gld_transactions ||
        st != got.gst_transactions - cp.const_delta.gst_transactions)
      return false;
  }
  return true;
}

template <class T>
std::shared_ptr<const SpecProgram> build_impl(const SpecBuildInput& bi) {
  const KernelSelection& sel = *bi.sel;
  auto prog = std::make_shared<SpecProgram>();
  prog->elem_size = static_cast<int>(sizeof(T));
  prog->txn_bytes = bi.props->dram_transaction_bytes;
  switch (sel.schema) {
    case Schema::kFviMatchSmall:
      prog->a_chunks = sel.fvi_small.i1_chunks;
      prog->a_rem = sel.fvi_small.i1_rem;
      prog->b_chunks = sel.fvi_small.ik_chunks;
      prog->b_rem = sel.fvi_small.ik_rem;
      break;
    case Schema::kOrthogonalDistinct:
      prog->a_chunks = sel.od.a_chunks;
      prog->a_rem = sel.od.a_rem;
      prog->b_chunks = sel.od.b_chunks;
      prog->b_rem = sel.od.b_rem;
      break;
    case Schema::kOrthogonalArbitrary:
      prog->a_chunks = sel.oa.a_chunks;
      prog->a_rem = sel.oa.a_rem;
      prog->b_chunks = sel.oa.b_chunks;
      prog->b_rem = sel.oa.b_rem;
      break;
    default:
      prog->a_chunks = sel.fvi_large.segs;
      prog->a_rem = sel.fvi_large.n0 % sel.fvi_large.seg_len;
      prog->b_chunks = sel.fvi_large.batch_chunks;
      prog->b_rem = sel.fvi_large.batch_rem;
      break;
  }

  // The class_of classifier reads idx0/idx1 straight off the decoded
  // GridEntry, which is only equivalent to the launch classifier's
  // (bid % a_chunks, bid / a_chunks % b_chunks) when the grid's first
  // two slots ARE the chunk dimensions. Verify that layout instead of
  // assuming it.
  const GridDecoder& dec = decoder_for(sel);
  const Index grid = grid_blocks_for(sel);
  const Index s0 = dec.slots() >= 1 ? dec.slot_extent(0) : 1;
  const Index s1 = dec.slots() >= 2 ? dec.slot_extent(1) : 1;
  if (s0 != prog->a_chunks || s1 != prog->b_chunks || grid <= 0 ||
      grid % (s0 * s1) != 0) {
    count_reject(Reject::kLayout);
    return nullptr;
  }
  const Index outer = grid / (s0 * s1);

  // One kernel pass per representative: the first records the class
  // program, later ones are checked against it, and every pass captures
  // the ground truth for the self-check below.
  std::vector<RepTruth> truths;
  std::vector<std::int64_t> shadow;
  // The ground-truth contexts log their texture lines instead of probing
  // a cache, so a one-line cache only supplies the line size.
  sim::TextureCache tex(1, bi.props->tex_line_bytes);
  bool all_affine = true;
  for (int c = 0; c < 4; ++c) {
    const auto reps = class_rep_bids(c, *prog, s0, s1, outer);
    if (reps.empty()) continue;
    ClassProgram& cp = prog->cls[c];
    for (std::size_t r = 0; r < reps.size(); ++r) {
      const bool first = r == 0;
      if (!record_rep<T>(bi, reps[r], first ? nullptr : &cp,
                         first ? &cp : nullptr, truths.emplace_back(), shadow,
                         tex)) {
        count_reject(first ? Reject::kUntraceable : Reject::kClassMismatch);
        return nullptr;
      }
    }
    cp.affine = std::all_of(cp.gops.begin(), cp.gops.end(),
                            [](const SpecGlobalOp& op) { return op.is_run; });
    all_affine = all_affine && cp.affine;
  }

  const bool txn_pow2 =
      prog->txn_bytes > 0 && prog->txn_bytes <= 4096 &&
      std::has_single_bit(static_cast<std::uint64_t>(prog->txn_bytes));
  for (ClassProgram& cp : prog->cls) {
    if (!cp.present) continue;
    if (all_affine && txn_pow2) {
      cp.gld_phase = phase_table(cp, true, prog->elem_size, prog->txn_bytes);
      cp.gst_phase = phase_table(cp, false, prog->elem_size, prog->txn_bytes);
    }
    compress_copies(cp);
  }

  if (prog->footprint_bytes() > kSpecProgramMaxBytes) {
    count_reject(Reject::kFootprint);
    return nullptr;
  }

  // Ground-truth self-check on every class representative.
  for (const RepTruth& t : truths) {
    if (!self_check(*prog, t, *bi.props)) {
      count_reject(Reject::kSelfCheck);
      return nullptr;
    }
  }

  if (dec.slots() > kSpecMaxRankBucket) {
    prog->tier = SpecTier::kStrideProgram;
  } else if (all_affine && txn_pow2) {
    prog->tier = SpecTier::kAffineBulk;
  } else {
    prog->tier = SpecTier::kTemplated;
  }
  return prog;
}

}  // namespace

std::shared_ptr<const SpecProgram> build_spec_program(const SpecBuildInput& in) {
  TTLG_CHECK(in.problem != nullptr && in.sel != nullptr && in.props != nullptr,
             "build_spec_program: null input");
  switch (in.problem->elem_size) {
    case 1: return build_impl<std::uint8_t>(in);
    case 2: return build_impl<std::uint16_t>(in);
    case 4: return build_impl<float>(in);
    case 8: return build_impl<double>(in);
    default:
      count_reject(Reject::kWidth);
      return nullptr;
  }
}

}  // namespace ttlg
