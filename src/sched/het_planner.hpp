// Heterogeneous-mode planning paths for every partition rule.
//
// When ClusterParams carries a speed profile that actually differs from the
// scalar Cps, each rule delegates here instead of its homogeneous body. The
// shared structure:
//
//  * The closed-form n_min (Section 4.1.1 B) assumes one Cps, so the node
//    count is resolved by a first-feasible scan over availability-ordered
//    prefixes instead: candidates are ordered by release time, the paper's
//    two hard rejections (deadline passed / pure transmission too long) only
//    worsen as r_n grows and abort the scan, and a work-conservation
//    capacity prune (sum_i (deadline - r_i)/cps_i >= sigma is necessary for
//    feasibility) skips building partitions that cannot possibly fit.
//    The prune is not walked position by position: because one more node can
//    contribute at most (deadline - r_n)/min_cps of capacity, the scan jumps
//    straight to the provable lower bound on the first prefix that could
//    carry the load (galloped like the homogeneous n_min first crossing) and
//    only hard-checks the jump landings; an infeasible landing binary-
//    searches the skipped range so the linear scan's exact accept position
//    and reject reason are preserved (hard rejection is monotone in r_n).
//    The row is filled, and speeds gathered (by id, off the profile's
//    column), a read-ahead block at a time: within one block of the largest
//    inspected position, so a plan that accepts a k-node prefix reads at
//    most k + 63 positions, not all N.
//  * Each prefix's estimate comes from the generalized Eq.-1 equivalent
//    model over the offered nodes' *actual* speeds
//    (dlt::build_het_partition_into feeding general_het_alpha_into). Where
//    that is the reference model itself - every OPR-MN prefix, and a tied
//    DLT prefix (every offered node free at the same instant) - one fused
//    loop (PlannerBatch::reference_walk) hard-checks, estimates and tests
//    each prefix in O(1), so such a plan costs O(k); an untied DLT prefix
//    rebuilds its equivalent model, O(k) per position.
//  * Accepted plans pin node identity: node_ids/node_cps record exactly
//    which nodes the alpha fractions were computed for, and the simulator
//    commits those ids (nodes of different speeds are not interchangeable).
//
// NodeSearch::kOptimistic has no het analogue (the single-shot n_min closed
// form is homogeneous-only); -Opt algorithm variants fall back to the
// iterative scan under a heterogeneous profile.
#pragma once

#include <cstddef>
#include <vector>

#include "dlt/het_model.hpp"
#include "sched/partition_rule.hpp"
#include "sched/planner_batch.hpp"

namespace rtdls::sched::het {

/// Reusable scratch shared by the het planning entry points. One instance
/// per rule (same single-thread affinity as the rules' other scratch).
struct PlannerScratch {
  /// Actual speeds of the offered positions, gathered as far as a planner
  /// reads (O(accept) instead of O(N) per plan): the prefix scan's landing
  /// or read-ahead block, UserSplit's n, OPR-AN's whole row.
  std::vector<double> cps;
  std::vector<double> alpha;        ///< general_het_alpha output
  dlt::HetPartition partition;      ///< generalized Eq.-1 model
  /// Batched SoA candidate-evaluation kernels: the post-crossing walk's
  /// incremental alpha cursor and the DLT path's flat equivalent-model
  /// columns live here (reused across plan() calls, zero allocation in
  /// steady state).
  PlannerBatch batch;
  /// Counters surfaced through ScratchRule::planner_counters().
  PlannerCounters counters;
  // multi-round state (slot-aligned with the chosen prefix)
  std::vector<Time> round_free;
  std::vector<Time> sorted_free;
  std::vector<double> sorted_cps;
  std::vector<std::size_t> order;
  std::vector<double> slot_alpha;
  // backfill state
  std::vector<cluster::NodeId> window_nodes;
  std::vector<double> window_cps;
  /// Backfill instant-free pool: ids free at the current candidate time (and
  /// their speeds), in id order, grown incrementally across node counts; the
  /// zero-length-window seeds are prefixes of this pool, which is what lets
  /// the m-loop ride the shared alpha cursor (see plan_opr_mn_backfill).
  std::vector<cluster::NodeId> instant_free;
  std::vector<double> instant_cps;
};

/// Base of every rule that owns a PlannerScratch (its het path): reports the
/// scratch's counters through PartitionRule::planner_counters(), in this one
/// place for all of them.
class ScratchRule : public PartitionRule {
 public:
  PlannerCounters planner_counters() const override { return het_scratch_.counters; }
  void reset_planner_counters() const override { het_scratch_.counters = {}; }

 protected:
  /// Reused across plan() calls (see PartitionRule's thread-affinity note).
  mutable PlannerScratch het_scratch_;
};

/// EDF/FIFO-DLT: IIT-utilizing partition on the generalized equivalent
/// model; smallest availability-ordered prefix whose r_n + E_hat meets the
/// deadline.
PlanResult plan_dlt_iit(const PlanRequest& request, PlannerScratch& scratch);

/// OPR-MN: simultaneous allocation at r_n with the het-optimal partition
/// over actual speeds; smallest feasible prefix.
PlanResult plan_opr_mn(const PlanRequest& request, PlannerScratch& scratch);

/// OPR-AN: the whole cluster at r_N.
PlanResult plan_opr_an(const PlanRequest& request, PlannerScratch& scratch);

/// UserSplit: equal chunks over the user's node count, each node computing
/// at its actual speed (exact rolled-out completion per node).
PlanResult plan_user_split(const PlanRequest& request, PlannerScratch& scratch);

/// Multi-round: node count from the single-round het scan (so a feasible
/// single-round fallback exists), then `rounds` uniform installments each
/// het-partitioned against the slots' evolving availability; falls back to
/// the single-round plan when the installments happen to finish later.
PlanResult plan_multiround(const PlanRequest& request, std::size_t rounds,
                           PlannerScratch& scratch);

/// OPR-MN-BF: conservative backfilling with het durations. At each calendar
/// candidate time t, node sets are grown one node at a time (lowest ids
/// first among nodes free at t); the window length is the het no-IIT
/// execution time of the selected set (distribution in id order), refined by
/// a short fixed-point iteration because the duration depends on which
/// nodes fit it. A set is accepted once every member is free across the
/// computed window and the window meets the deadline.
PlanResult plan_opr_mn_backfill(const PlanRequest& request, PlannerScratch& scratch);

/// Exact rolled-out multi-installment timeline on heterogeneous slots
/// (shared by plan_multiround and the simulator's shared-link re-roll).
/// `available`/`cps` are slot-aligned; `completion[i]` is slot i's last
/// installment finish. When `slot_alpha` is non-null it receives each
/// slot's mean load fraction across installments (sums to 1).
struct HetMultiRoundRollout {
  std::vector<Time> completion;
  Time channel_busy_until = 0.0;

  Time task_completion() const;
};

void roll_multiround(const cluster::ClusterParams& params, double sigma,
                     const std::vector<Time>& available, const std::vector<double>& cps,
                     std::size_t rounds, Time channel_available, PlannerScratch& scratch,
                     HetMultiRoundRollout& out, std::vector<double>* slot_alpha = nullptr);

}  // namespace rtdls::sched::het
