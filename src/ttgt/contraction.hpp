// TTGT tensor contraction (the paper's §I motivating application):
// evaluate C = alpha * A . B + beta * C by Transpose-Transpose-GEMM-
// Transpose, planning the transposition chain with TTLG's queryable
// performance model.
//
// Contractions are written einsum-style with single-letter indices:
//     "iak,kbj->abij"
// means C[a,b,i,j] = sum_k A[i,a,k] * B[k,b,j] (every index appearing in
// both inputs is contracted; indices follow the fastest-varying-first
// convention of the rest of the library).
#pragma once

#include <string>
#include <vector>

#include "core/plan.hpp"
#include "tensor/tensor.hpp"

namespace ttlg::ttgt {

/// A parsed contraction specification.
struct ContractionSpec {
  std::string a_indices;  ///< index letter per dimension of A
  std::string b_indices;
  std::string c_indices;
  std::string contracted;  ///< letters summed over (in A, in B, not in C)
  std::string free_a;      ///< letters of A that survive into C
  std::string free_b;

  /// Parse "iak,kbj->abij". Throws ttlg::Error on malformed specs:
  /// repeated letters within one operand, output letters that appear in
  /// neither input, contracted letters appearing in the output, or
  /// letters appearing in only one tensor.
  static ContractionSpec parse(const std::string& text);
  /// The "iak,kbj->abij" form parse() reads.
  std::string to_string() const {
    return a_indices + "," + b_indices + "->" + c_indices;
  }
};

/// One step of a TTGT plan.
struct TtgtStep {
  std::string what;   ///< "transpose A", "GEMM", ...
  std::string perm;   ///< permutation applied (empty for GEMM)
  double predicted_s = 0;
  bool skipped = false;  ///< layout already GEMM-ready (fused identity)
};

/// A fully planned TTGT evaluation.
struct TtgtPlan {
  ContractionSpec spec;
  Shape a_shape, b_shape, c_shape;
  Permutation a_perm, b_perm, c_perm;  ///< applied to A, B and to the
                                       ///< GEMM result to produce C
  Index m = 1, n = 1, k = 1;           ///< GEMM dimensions
  std::vector<TtgtStep> steps;
  double predicted_total_s = 0;

  std::string describe() const;
};

/// Plan the contraction: enumerate the GEMM-ready operand layouts
/// ([k-fast | m-fast] x [k-fast | n-fast]), query the §V performance
/// model for each required transposition, and keep the cheapest chain.
/// Extents are taken from the operand shapes; matching letters must
/// have matching extents (checked).
TtgtPlan plan_ttgt(const sim::DeviceProperties& props,
                   const ContractionSpec& spec, const Shape& a_shape,
                   const Shape& b_shape, const PlanOptions& opts = {});

/// Execute the plan: transposes run as TTLG kernels on the simulated
/// device; the GEMM runs as a shared-memory tiled kernel on the same
/// device (see gemm_kernel.hpp). Returns C (host tensor) with the
/// c_indices layout, plus the simulated device time of every step.
struct TtgtResult {
  Tensor<double> c;
  double transpose_s = 0;
  double gemm_s = 0;
  double total_s = 0;
};

TtgtResult execute_ttgt(sim::Device& dev, const TtgtPlan& plan,
                        const Tensor<double>& a, const Tensor<double>& b);

/// Reference: direct nested-loop contraction (the correctness oracle).
Tensor<double> contract_reference(const ContractionSpec& spec,
                                  const Tensor<double>& a,
                                  const Tensor<double>& b);

}  // namespace ttlg::ttgt
