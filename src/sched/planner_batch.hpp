// Batched structure-of-arrays planning kernels.
//
// Candidate evaluation dominates the schedulability test: the het planners
// inspect (n, candidate-time) prefixes one at a time and historically
// re-ran the full Eq. (4)-(5) recurrence - and, on the DLT path, rebuilt a
// whole HetPartition - for every one, O(N^2) per task in the worst case.
// This layer restructures that work into flat columns:
//
//  * The fused walk (reference_walk): wherever a prefix's estimate is the
//    no-IIT reference one - all n nodes allocated at r_n with their actual
//    speeds, which is every OPR-MN prefix and every tied DLT-IIT prefix
//    (each offered node frees at r_1, so Eq. 1's equivalent model is the
//    reference model itself) - one loop over a block of prefixes
//    hard-checks r_n, extends the shared dlt::AlphaRecurrence cursor by
//    one node, forms the estimate and stops at the first prefix that meets
//    the deadline: a divide, a multiply and a few adds and compares per
//    prefix, no call and no allocation.
//  * Untied DLT-IIT prefixes (dlt_walk_estimate): E_ref still comes from
//    the cursor in O(1), but the equivalent-model costs cps_tilde depend
//    on both r_n and E_ref, so they change wholesale at every n: O(n) per
//    position, two elementwise column passes - divide column, ratio
//    column - that the compiler vectorizes, followed by the
//    order-sensitive scalar scan. No partition struct, no per-candidate
//    allocation.
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

/// The paper's two hard rejections at prefix end r_n: the deadline has
/// passed, or the pure transmission sigma*cms no longer fits the slack.
/// Both only worsen as r_n grows, so the first one hit ends a walk.
inline dlt::Infeasibility hard_reject(double sigma, double cms, Time deadline, Time rn) {
  const Time slack = deadline - rn;
  if (slack <= 0.0) return dlt::Infeasibility::kDeadlinePassed;
  if (sigma * cms >= slack) return dlt::Infeasibility::kTransmissionTooLong;
  return dlt::Infeasibility::kNone;
}

class PlannerBatch {
 public:
  // --- incremental walk interface -----------------------------------------
  // A walk starts with begin_walk and then evaluates strictly increasing
  // prefix lengths n; the cursor carries the shared recurrence forward.
  // `free` / `cps` are the availability-ordered columns; entries [0, n)
  // must be populated before a prefix n is evaluated.

  void begin_walk(double cms, double sigma);

  /// Where reference_walk stopped.
  struct WalkStop {
    std::size_t estimated = 0;  ///< prefixes estimated (past the hard check)
    /// The hard rejection that ended the walk at prefix first + estimated.
    dlt::Infeasibility reason = dlt::Infeasibility::kNone;
    bool accepted = false;  ///< prefix first + estimated - 1 met the deadline
    Time estimate = 0.0;    ///< that prefix's estimate
  };

  /// The fused first-feasible kernel over prefixes n = first..last
  /// (first >= 1), for prefixes whose estimate is the reference one:
  ///   r_n + (sigma*Cms + alpha_n*sigma*cps_n),
  /// alpha_n off the cursor. Per n, in order: hard-check r_n when
  /// n > clear (a rejection ends the walk with its reason), extend the
  /// cursor by cps[n-1], form the estimate in the operation order above,
  /// and stop at the first prefix that meets `deadline` (at_or_before).
  /// Prefixes 1..first-1 join the cursor first (their speeds must be
  /// populated too). O(1) per prefix.
  RTDLS_HOT WalkStop reference_walk(const Time* free, const double* cps, std::size_t first,
                                    std::size_t last, std::size_t clear, Time deadline);

  /// DLT-IIT estimate at an untied prefix n (free[0] < free[n-1]): the
  /// generalized Eq.-1 equivalent model's r_n + E_hat, evaluated on flat
  /// columns. E_ref comes from the cursor in O(1); the cps_tilde stage is
  /// O(n) with vectorizable elementwise passes. (A tied prefix gets the
  /// same bits from reference_walk in O(1).)
  RTDLS_HOT Time dlt_walk_estimate(const std::vector<Time>& free, const std::vector<double>& cps,
                                   std::size_t n);

  /// Normalized alpha of the cursor's prefix: the prefix reference_walk
  /// accepted (general_het_alpha_into's output, bit for bit).
  void materialize_walk_alpha(std::vector<double>& out) const { cursor_.materialize(out); }

  /// Normalized alpha of the last dlt_walk_estimate prefix (the accepted
  /// partition's fractions, bit for bit).
  void materialize_dlt_alpha(std::vector<double>& out) const;

  // --- backfill window kernels ---------------------------------------------
  // The OPR-MN-BF candidate-time x m sweep grows an id-ordered node pool at
  // each candidate time; its zero-length-window seeds are prefixes of that
  // pool, so consecutive m share the walk cursor. Re-selected (positive
  // duration) windows are arbitrary sets, timed by
  // dlt::general_het_execution_time in one streamed pass.

  /// Window duration of the m-prefix of the cursor's column (extends the
  /// cursor as the pool grows): sigma*Cms + alpha_m*sigma*cps_m.
  RTDLS_HOT Time window_duration_prefix(const std::vector<double>& cps, std::size_t m);

 private:
  /// Extends the cursor through prefix n (a no-op when it is there).
  void sync_cursor(const double* cps, std::size_t n);

  dlt::AlphaRecurrence cursor_;  ///< recurrence over the actual-speed column
  double sigma_ = 0.0;
  double cms_ = 1.0;
  // DLT second-stage columns (reused across candidates and plans).
  std::vector<double> tilde_;     ///< cps_tilde_i, Eq. (1) generalized
  std::vector<double> ratio_;     ///< X_i = tilde_{i-1} / (cms + tilde_i)
  std::vector<double> products_;  ///< unnormalized prefix products over tilde
  double dlt_denom_ = 1.0;        ///< running denominator of the last DLT prefix
  std::size_t dlt_n_ = 0;         ///< length of the last DLT prefix
};

}  // namespace rtdls::sched::het
