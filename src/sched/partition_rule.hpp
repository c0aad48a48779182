// Decision #2/#3 of the Figure-2 framework: how a task is partitioned and
// how many nodes it is assigned. Each concrete rule plans one task against
// the sorted node release times, read through an AvailabilityView that
// fills the positions the rule inspects; the admission controller composes
// rules with an ordering policy into a full schedulability test.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/availability_view.hpp"
#include "cluster/calendar.hpp"
#include "dlt/params.hpp"
#include "sched/plan.hpp"
#include "workload/task.hpp"

namespace rtdls::sched {

/// Inputs to planning one task.
struct PlanRequest {
  const workload::Task* task = nullptr;
  cluster::ClusterParams params;

  /// The availability row: release times of all N nodes, floored at `now`
  /// and sorted ascending. Position k-1 is both (a) the earliest instant k
  /// nodes are simultaneously available and (b) the available time r_k of
  /// the k-th earliest node for IIT-utilizing rules. Under a heterogeneous
  /// profile the row also names each position's node, in strict (time, id)
  /// order: rules look up per-node cps through params.node_cps(ids()[i])
  /// and record the chosen ids in the plan, pinning the speeds their
  /// partition was computed for.
  ///
  /// Input contract: the row fills on demand, for every rule alike. A rule
  /// calls row->fill(n) (or reads row->at(i)) before it reads times()[i] or
  /// ids()[i] for i < n, and asks for no more than it inspects - the prefix
  /// scans extend the fill as they gallop, whole-row rules (OPR-AN) ask for
  /// N. The buffers hold exactly the filled positions, so a read past the
  /// fill fails the bounds-checked build's assertions.
  const cluster::AvailabilityView* row = nullptr;

  Time now = 0.0;

  /// Reservation calendar with gap information; required by rules with
  /// uses_calendar() == true (the backfilling comparators), null otherwise.
  const cluster::NodeCalendar* calendar = nullptr;
};

/// Outcome of planning one task.
struct PlanResult {
  dlt::Infeasibility reason = dlt::Infeasibility::kNone;
  TaskPlan plan;

  bool feasible() const { return reason == dlt::Infeasibility::kNone; }

  static PlanResult infeasible(dlt::Infeasibility why) {
    PlanResult result;
    result.reason = why;
    return result;
  }
};

/// Planner-internal event counters a rule may expose (collected into
/// SimMetrics per run and mirrored to the obs registry; see Simulator::run).
/// Plain fields, not obs handles: the bump sites are inside RTDLS_HOT
/// kernels where even a thread-local atomic increment is unwelcome.
struct PlannerCounters {
  /// OPR-MN-BF (selection, duration) fixed points that did not settle within
  /// the iteration budget and took the conservative-window fallback instead
  /// of being silently skipped.
  std::size_t backfill_fixed_point_fallbacks = 0;
  /// first_feasible_prefix invocations (one per node-count resolve).
  std::size_t resolver_walks = 0;
  /// Candidate prefixes the resolver's linear phase actually evaluated.
  std::size_t resolver_positions = 0;
  /// Batched SoA kernel evaluations (walk estimates + window durations).
  std::size_t batch_passes = 0;
  /// OPR-MN-BF (selection, duration) fixed-point iterations executed.
  std::size_t backfill_fixed_point_iterations = 0;

  PlannerCounters& operator+=(const PlannerCounters& other) {
    backfill_fixed_point_fallbacks += other.backfill_fixed_point_fallbacks;
    resolver_walks += other.resolver_walks;
    resolver_positions += other.resolver_positions;
    batch_passes += other.batch_passes;
    backfill_fixed_point_iterations += other.backfill_fixed_point_iterations;
    return *this;
  }
};

/// Abstract partitioning + node-assignment rule.
///
/// Thread affinity: plan() is a pure function of the request (identical
/// requests yield identical plans - the incremental admission cache relies
/// on this), but implementations may keep mutable scratch buffers, so one
/// rule *instance* must not be shared across threads. Each simulator owns
/// its own Algorithm (make_algorithm constructs fresh rules), which is what
/// the parallel sweep runner relies on.
class PartitionRule {
 public:
  virtual ~PartitionRule() = default;

  /// Plans `request.task` against the availability row; returns an
  /// infeasibility reason when no assignment meets the deadline.
  virtual PlanResult plan(const PlanRequest& request) const = 0;

  /// Short rule name used in algorithm identifiers ("DLT", "OPR-MN", ...).
  virtual std::string_view name() const = 0;

  /// True when the rule plans against PlanRequest::calendar (gap-aware
  /// backfilling) instead of the sorted release times.
  virtual bool uses_calendar() const { return false; }

  /// Exactness contract for the admission controller's batched queue screen
  /// (het::QueueScreen): a rule returning true promises that whenever
  ///   deadline - front <= 0            (kDeadlinePassed), or
  ///   sigma*Cms >= deadline - front    (kTransmissionTooLong)
  /// holds at the availability row's front (= r_1 of the row the task plans
  /// against), its plan() returns infeasible with that exact reason - so the
  /// controller may reject straight off precomputed columns without calling
  /// plan(). Holds for the first-position hard rejections of the DLT/OPR-MN
  /// prefix scans (monotone in r_n, so position 1 fires first) and for
  /// dlt::minimum_nodes' gamma test (fl(a/b) >= 1 whenever a >= b, so the
  /// closed form rejects identically). Must stay false for rules that modify
  /// the deadline (output-aware decorator) or plan against a calendar.
  virtual bool hard_rejects_at_front() const { return false; }

  /// Planner counters accumulated since the last reset (rules without
  /// counters report zeros).
  virtual PlannerCounters planner_counters() const { return {}; }

  /// Clears the counters (const for the same reason plan() is: counters live
  /// in the rule's mutable scratch).
  virtual void reset_planner_counters() const {}
};

/// How the n_min-based rules resolve the circular dependence between the
/// node count n and the start time r_n (the paper's pseudocode computes
/// "n <- n_min_tilde(t)" and then "the earliest time t when AN(t) >= n";
/// Section 4.1.1 B derives n_min_tilde assuming r_n is known).
enum class NodeSearch {
  /// Least fixed point of n -> n_min_tilde(r_n(n)): scan n = 1..N and take
  /// the first n with n_min_tilde(free[n-1]) <= n. The completion check can
  /// then never fail; the task always gets the smallest self-consistent n.
  kIterative,
  /// Single-shot: n = n_min_tilde(free[0]) (the earliest any node frees,
  /// i.e. "start now" optimism), start when those n nodes are available,
  /// then the explicit e_i <= A_i + D_i check does the real rejection work.
  kOptimistic,
};

/// The paper's new contribution: DLT-based partitioning with different
/// processor available times (Section 4.1.1). Assigns n_min_tilde nodes; the
/// chosen nodes start as soon as they individually free (IITs utilized).
std::unique_ptr<PartitionRule> make_dlt_iit_rule(NodeSearch search = NodeSearch::kIterative);

/// Prior work [22] baseline OPR-MN: optimal homogeneous partitioning with
/// the minimum node count, all nodes allocated simultaneously at r_n (the
/// gaps before r_n are wasted as Inserted Idle Time).
std::unique_ptr<PartitionRule> make_opr_mn_rule(NodeSearch search = NodeSearch::kIterative);

/// Prior work [22] OPR-AN: every task runs on all N nodes (no IIT problem,
/// but serializes the cluster). Listed in Section 5 as "rarely adopted";
/// provided for completeness and ablation.
std::unique_ptr<PartitionRule> make_opr_an_rule();

/// Current practice baseline (Section 4.1.2): the user's equal split over a
/// user-chosen node count (Task::user_nodes), IITs utilized.
std::unique_ptr<PartitionRule> make_user_split_rule();

/// Extension (paper Section 6 future work): multi-installment DLT
/// partitioning with `rounds` uniform installments.
std::unique_ptr<PartitionRule> make_multiround_rule(std::size_t rounds);

/// Backfilling comparator: OPR-MN planning against a reservation calendar
/// (conservative backfilling in the sense of [24]): a task may start in a
/// gap IN FRONT of existing reservations as long as its n nodes are
/// simultaneously free for E(sigma, n). Quantifies how much of the IIT
/// waste backfilling alone recovers versus the paper's DLT rule.
std::unique_ptr<PartitionRule> make_opr_mn_backfill_rule();

/// Extension (paper Section 3: output-data transfer): decorates any rule so
/// the result-collection phase (delta = output/input data ratio) is
/// budgeted into the deadline; see dlt/output_model.hpp for the bound.
/// Pair with SimulatorConfig::output_ratio == delta so the execution
/// rollout models the same result traffic the plan budgeted.
std::unique_ptr<PartitionRule> make_output_aware_rule(std::unique_ptr<PartitionRule> inner,
                                                      double delta);

}  // namespace rtdls::sched
