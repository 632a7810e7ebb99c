// Plan-time kernel specialization: compiled per-plan stride programs.
//
// At make_plan time the planned kernel's inner address/copy loops are
// executed ONCE per block equivalence class against a recording context
// (core/stride_program.cpp), compiling them into a compact program:
//
//   - a block-invariant LaunchCounters delta (smem ops, bank conflicts,
//     barriers, special/fma ops, texture transactions, payload bytes),
//   - the warp-collective global accesses as base-relative runs or
//     sorted offset tables (relative to GridDecoder's block-level base
//     offsets),
//   - the texture lines touched, in first-touch order, and
//   - a fused gather/scatter copy table for functional execution.
//
// Per-block behavior within a class differs only by the decoded base
// offsets, so executing a program (core/spec_exec.hpp) reproduces the
// generic kernel bit-identically — same outputs, same counters, same
// simulated times — while skipping all per-lane work. When every global
// access of every class is a consecutive run, the whole-tile transaction
// count additionally collapses to a phase-table lookup (the affine bulk
// tier, built on analysis.hpp's txns_for_run_at_phase closed form).
//
// The compiler VERIFIES itself before a program is accepted: programs
// recorded from distinct representative blocks of a class must match
// exactly, and the finished program's replay for every representative is
// checked against a real count-only BlockCtx run of the generic kernel.
// Each representative takes ONE kernel pass that feeds both the recorder
// and that BlockCtx, which counts on its own. Any mismatch — or an
// untraceable dataflow, or a program too big to amortize — degrades the
// plan to the generic per-lane path (tier kGeneric).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/grid_decode.hpp"
#include "core/planner.hpp"
#include "gpusim/chunk_classes.hpp"
#include "gpusim/counters.hpp"
#include "gpusim/device_properties.hpp"

namespace ttlg {

/// How a plan executes after specialization analysis. Ordered weakest
/// to strongest; persisted in plan files as the integer value.
enum class SpecTier : int {
  kGeneric = 0,        ///< no program: generic per-lane kernel
  kStrideProgram = 1,  ///< program via the generic interpreter (rank
                       ///< above the largest templated bucket)
  kTemplated = 2,      ///< program via the fixed-rank (decode rank
                       ///< 1..kSpecMaxRankBucket) kernel variant
  kAffineBulk = 3,     ///< all accesses affine runs: whole-tile
                       ///< closed-form transaction charging
};

const char* to_string(SpecTier tier);

/// Amortization cap on the compiled program footprint: a program
/// bigger than this costs more to build and drag through the cache than
/// the per-lane work it saves, so the plan stays generic instead.
inline constexpr std::int64_t kSpecProgramMaxBytes = std::int64_t{4} << 20;

/// One recorded warp-collective global access. Offsets are ELEMENT
/// offsets relative to the decoded block base of the accessed buffer
/// (in_base for loads, out_base for stores).
struct SpecGlobalOp {
  bool is_load = true;
  bool is_run = true;        ///< distinct addresses form [rel0, rel0+nlanes)
  std::int64_t rel0 = 0;     ///< run: first element offset
  std::int32_t nlanes = 0;   ///< distinct addresses in the access
  std::int32_t delta_off = 0;  ///< scattered: range into byte_deltas
  std::int32_t delta_len = 0;
};

/// One compressed copy segment: out[out_base+dst0+i] = in[in_base+src0+i].
struct SpecRunCopy {
  std::int64_t dst0 = 0;
  std::int64_t src0 = 0;
  std::int64_t n = 0;
};

/// The compiled program for one block equivalence class.
struct ClassProgram {
  bool present = false;
  /// Block-invariant event counts. Launch geometry fields are zero so
  /// the delta is safe to add per block (BlockCtx::bulk_charge).
  sim::LaunchCounters const_delta;
  std::vector<SpecGlobalOp> gops;
  /// Sorted unique byte offsets (relative to the block base byte) for
  /// scattered ops; SpecGlobalOp::delta_off/len slice into this pool.
  std::vector<std::int64_t> byte_deltas;
  /// Absolute texture line ids in first-touch order (offset arrays are
  /// indexed by slice coordinates, not block bases, so lines are
  /// class-invariant).
  std::vector<std::int64_t> tex_lines;
  /// Elementwise copy table: out[out_base+copy_dst[i]] = in[in_base+copy_src[i]].
  std::vector<std::int64_t> copy_dst;
  std::vector<std::int64_t> copy_src;
  /// Run-compressed form of the copy table, used when the average
  /// segment is long enough to beat the elementwise loop.
  std::vector<SpecRunCopy> run_copies;
  bool use_run_copies = false;
  /// Every global access is a consecutive run (precondition for the
  /// affine whole-tile tier).
  bool affine = false;
  /// Affine whole-tile phase tables, one entry per byte phase of the
  /// block base within a DRAM transaction: total gld/gst transactions
  /// for the block in closed form. Empty when the class has no access
  /// in that direction (or is not affine).
  std::vector<std::int32_t> gld_phase;
  std::vector<std::int32_t> gst_phase;
  /// Copy-table bounds, checked once per block instead of per lane.
  /// max_src < 0 means the class copies nothing.
  std::int64_t min_src = 0;
  std::int64_t max_src = -1;
  std::int64_t min_dst = 0;
  std::int64_t max_dst = -1;

  std::int64_t footprint_bytes() const;
};

/// A compiled stride program for one plan: the four chunk-remainder
/// block classes (class = partial-A bit | partial-B bit) plus the
/// launch's own block classes, which map a decoded block to its class.
struct SpecProgram {
  SpecTier tier = SpecTier::kGeneric;
  int elem_size = 8;
  std::int64_t txn_bytes = 128;
  sim::ChunkClasses classes;
  ClassProgram cls[sim::ChunkClasses::kCount];

  int class_of(const GridEntry& e) const {
    return classes.class_of_chunk(e.idx0, e.idx1);
  }
  std::int64_t footprint_bytes() const;
};

struct SpecBuildInput {
  const TransposeProblem* problem = nullptr;
  const KernelSelection* sel = nullptr;
  const sim::DeviceProperties* props = nullptr;
  /// Device base addresses of the plan's texture offset buffers, in the
  /// order the schema binds them (OD: in/out offsets; OA: input/output/
  /// sm_out offsets). Unused entries may be zero.
  std::int64_t tex_base[3] = {0, 0, 0};
};

/// Compile a stride program for the selection, or nullptr when the plan
/// must stay generic (untraceable dataflow, verification mismatch,
/// footprint over kSpecProgramMaxBytes, unsupported element width).
/// Rejection reasons are exported as plan.spec.reject.* counters.
std::shared_ptr<const SpecProgram> build_spec_program(const SpecBuildInput& in);

/// TTLG_SPECIALIZE master switch: unset or anything but "0" enables.
bool specialization_enabled_by_env();

}  // namespace ttlg
