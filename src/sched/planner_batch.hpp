// Batched structure-of-arrays planning kernels.
//
// Candidate evaluation dominates the schedulability test: the het planners
// inspect (n, candidate-time) prefixes one at a time and historically
// re-ran the full Eq. (4)-(5) recurrence - and, on the DLT path, rebuilt a
// whole HetPartition - for every one, O(N^2) per task in the worst case.
// This layer restructures that work into flat columns:
//
//  * Walk kernels (opr_walk_estimate / dlt_walk_estimate): share one
//    dlt::AlphaRecurrence cursor over the actual-speed column, so the het
//    resolver's post-crossing walk extends n -> n+1 in O(1) on the OPR-MN
//    path and O(1) for the E_ref stage of the DLT path. On a tied prefix
//    (every offered node frees at the same instant) the equivalent model is
//    the no-IIT model itself, so the DLT estimate is O(1) per position too.
//    Untied, the DLT path's second stage (the equivalent-model costs
//    cps_tilde depend on both r_n and E_ref, so they change wholesale at
//    every n) costs O(n) per position: two elementwise column passes -
//    divide column, ratio column - that the compiler vectorizes, followed
//    by the order-sensitive scalar scan. No partition struct, no
//    per-candidate allocation.
//
// Proof obligation: every kernel accumulates in the exact scan order of the
// scalar reference (general_het_alpha_into / build_het_partition_into), so
// schedules are bit-identical - enforced by differential property tests
// over graded sizes, with the admission cross-check armed.
#pragma once

#include <cstddef>
#include <vector>

#include "dlt/het_model.hpp"
#include "util/annotations.hpp"
#include "dlt/params.hpp"

namespace rtdls::sched::het {

using cluster::Time;

class PlannerBatch {
 public:
  // --- incremental walk interface -----------------------------------------
  // A walk starts with begin_walk and then asks for estimates at strictly
  // increasing prefix lengths n; the cursor carries the shared recurrence
  // forward. `free` / `cps` are the availability-ordered columns; entries
  // [0, n) must be populated before the call.

  void begin_walk(double cms, double sigma);

  /// OPR-MN estimate at prefix n: r_n + sigma*Cms + alpha_n*sigma*cps_n,
  /// alpha_n from the cursor. O(1) amortized per inspected prefix.
  RTDLS_HOT Time opr_walk_estimate(const std::vector<Time>& free, const std::vector<double>& cps,
                         std::size_t n);

  /// DLT-IIT estimate at prefix n: the generalized Eq.-1 equivalent model's
  /// r_n + E_hat, evaluated on flat columns. E_ref comes from the cursor in
  /// O(1). A tied prefix (free[0] == free[n-1]) has E_hat == E_ref exactly
  /// and stops there, O(1); otherwise the cps_tilde stage is O(n) with
  /// vectorizable elementwise passes.
  RTDLS_HOT Time dlt_walk_estimate(const std::vector<Time>& free, const std::vector<double>& cps,
                         std::size_t n);

  /// Normalized alpha of the last opr_walk_estimate prefix
  /// (general_het_alpha_into's output, bit for bit).
  void materialize_walk_alpha(std::vector<double>& out) const { cursor_.materialize(out); }

  /// Normalized alpha of the last dlt_walk_estimate prefix
  /// (the accepted partition's fractions, bit for bit; the cursor's alpha
  /// when that prefix was tied).
  void materialize_dlt_alpha(std::vector<double>& out) const;

  // --- backfill window kernels ---------------------------------------------
  // The OPR-MN-BF candidate-time x m sweep grows an id-ordered node pool at
  // each candidate time; its zero-length-window seeds are prefixes of that
  // pool, so consecutive m share the walk cursor. Re-selected (positive
  // duration) windows are arbitrary sets and use the one-shot kernel.

  /// Window duration of the m-prefix of the cursor's column (extends the
  /// cursor as the pool grows): sigma*Cms + alpha_m*sigma*cps_m.
  RTDLS_HOT Time window_duration_prefix(const std::vector<double>& cps, std::size_t m);

  /// One-shot window duration of an arbitrary m-node set; streams the
  /// recurrence, allocation-free.
  RTDLS_HOT static Time window_duration(double cms, double sigma, const std::vector<double>& cps,
                              std::size_t m);

 private:
  void sync_cursor(const std::vector<double>& cps, std::size_t n);

  dlt::AlphaRecurrence cursor_;  ///< recurrence over the actual-speed column
  double sigma_ = 0.0;
  double cms_ = 1.0;
  // DLT second-stage columns (reused across candidates and plans).
  std::vector<double> tilde_;     ///< cps_tilde_i, Eq. (1) generalized
  std::vector<double> ratio_;     ///< X_i = tilde_{i-1} / (cms + tilde_i)
  std::vector<double> products_;  ///< unnormalized prefix products over tilde
  double dlt_denom_ = 1.0;        ///< running denominator of the last DLT prefix
  std::size_t dlt_n_ = 0;         ///< length of the last DLT prefix
  bool dlt_tied_ = false;         ///< last DLT prefix was tied (columns unused)
};

}  // namespace rtdls::sched::het
