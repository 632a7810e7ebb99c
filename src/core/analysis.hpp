// Closed-form data-movement analysis of the four kernels (paper §IV-C,
// Table I) plus the abstract "cycles" features of the §V performance
// models. The analytic LaunchCounters estimates feed the analytic
// performance model and are validated against simulator-measured
// counters by the Table I benchmark and tests.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/fvi_config.hpp"
#include "core/oa_config.hpp"
#include "core/od_config.hpp"
#include "core/problem.hpp"
#include "gpusim/counters.hpp"

namespace ttlg {

/// Transactions needed to move `elems` contiguous elements of size
/// `elem_size` with `txn_bytes` transactions (alignment-agnostic lower
/// bound, the paper's ceil(n/32) with 32 = floats per transaction).
Index txns_for_run(Index elems, int elem_size, Index txn_bytes = 128);

/// Exact alignment-aware refinement of txns_for_run: transactions for a
/// run of `elems` consecutive elements whose first byte lands `phase`
/// bytes into its transaction segment (phase = start_byte % txn_bytes).
/// The affine whole-tile specialization path tabulates this over all
/// txn_bytes phases so a block's transactions become one table lookup on
/// its base address (see core/stride_program.hpp). Requires elems >= 1.
Index txns_for_run_at_phase(Index phase, Index elems, int elem_size,
                            Index txn_bytes = 128);

/// One warp access of an affine access pattern: `nlanes` consecutive
/// elements starting `rel0` elements from the block base (rel0 may be
/// negative).
struct RunAccess {
  Index rel0 = 0;
  Index nlanes = 1;
};

/// Whole-tile transaction table of a list of runs: entry p is the total
/// transaction count when the block base lands p bytes into its segment,
///   table[p] = sum over runs of
///              txns_for_run_at_phase((p + rel0*elem_size) mod txn_bytes,
///                                    nlanes, elem_size, txn_bytes),
/// for p in [0, txn_bytes). Computed in O(runs + txn_bytes) exact integer
/// arithmetic (each run is a constant plus one cyclic range of phases).
/// Requires nlanes >= 1. Entries are narrowed to int32 like the
/// execution-time tables that store them. An empty run list gives an
/// empty table.
std::vector<std::int32_t> build_phase_table(std::span<const RunAccess> runs,
                                            int elem_size, Index txn_bytes);

/// Analytic counter estimates, per kernel. `payload_bytes` and launch
/// geometry are filled in so the estimates can be fed straight into
/// sim::kernel_timing.
sim::LaunchCounters analyze_od(const TransposeProblem& p, const OdConfig& c);
sim::LaunchCounters analyze_oa(const TransposeProblem& p, const OaConfig& c);
sim::LaunchCounters analyze_fvi_small(const TransposeProblem& p,
                                      const FviSmallConfig& c);
sim::LaunchCounters analyze_fvi_large(const TransposeProblem& p,
                                      const FviLargeConfig& c);

/// §V "cycles" feature for the Orthogonal-Distinct model: warp-activity
/// cycles summed over full/partial tiles of full/partial slices.
double od_cycles_feature(const TransposeProblem& p, const OdConfig& c);

/// §V "cycles" feature for the Orthogonal-Arbitrary model: DRAM
/// transactions summed over full/partial slices (f1 + f2 + f3 + f4).
double oa_cycles_feature(const TransposeProblem& p, const OaConfig& c);

/// §V "special instructions" feature for Orthogonal-Arbitrary: mod/div
/// count from block decode plus remainder-block boundary checks.
double oa_special_feature(const TransposeProblem& p, const OaConfig& c);

}  // namespace ttlg
