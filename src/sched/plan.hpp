// A task plan: the outcome of one partition-rule invocation inside the
// Figure-2 schedulability test. Plans are made against the *sorted multiset*
// of node release times (nodes are interchangeable in the paper's model);
// the simulator later maps a committed plan onto concrete node ids.
#pragma once

#include <cstddef>
#include <vector>

#include "dlt/params.hpp"

namespace rtdls::sched {

using cluster::TaskId;
using cluster::Time;

/// Fully determined execution plan for one task.
struct TaskPlan {
  TaskId task = cluster::kNoTask;
  std::size_t nodes = 0;            ///< n: node count used

  /// r_1..r_n: available time of each chosen node (sorted ascending).
  /// r_n is the task "start time" in the paper's sense.
  std::vector<Time> available;

  /// When each node's reservation begins. Equal to `available` for the
  /// IIT-utilizing rules; equal to r_n for OPR (simultaneous allocation),
  /// which makes the gap [available_k, r_n) Inserted Idle Time. Either way
  /// sorted ascending (consistent() checks it), so front() is its minimum.
  std::vector<Time> reserve_from;

  /// When each node is released for subsequent tasks under estimate-based
  /// accounting (the quantity the Figure-2 framework propagates).
  std::vector<Time> node_release;

  /// Load fractions alpha_1..alpha_n (sum == 1).
  std::vector<double> alpha;

  /// Estimated task completion e_i; admission requires e_i <= A_i + D_i.
  Time est_completion = 0.0;

  /// Number of installments (1 for all paper algorithms; >1 for the
  /// multi-round extension).
  std::size_t rounds = 1;

  /// Concrete node ids, set by calendar-based (backfilling) rules that
  /// placed reservations into specific gaps and by every heterogeneous-mode
  /// plan (node identity fixes the speeds the partition was computed for);
  /// empty for the paper's homogeneous rules, whose interchangeable slots
  /// map onto the earliest-free nodes at commit time.
  std::vector<cluster::NodeId> node_ids;

  /// Actual unit processing cost of each chosen node (aligned with `alpha`
  /// and `node_ids`), set only by heterogeneous-mode plans; empty means the
  /// homogeneous params.cps applies to every slot. The execution rollout
  /// computes per-node finish times from these.
  std::vector<double> node_cps;

  /// Earliest resource commitment instant: once the simulation clock passes
  /// this, the task can no longer be re-planned. O(1): every rule writes
  /// reserve_from as its sorted `available` column or as one constant, so
  /// its first entry is its minimum (the sort is part of consistent()).
  Time commit_time() const {
    if (reserve_from.empty()) return est_completion;
    return reserve_from.front() < est_completion ? reserve_from.front() : est_completion;
  }

  /// Internal consistency (sizes agree, `available` and `reserve_from`
  /// sorted, fractions sum to 1).
  bool consistent() const;

  /// Exact (bitwise on every field) equality; the incremental admission
  /// cross-check demands bit-identical plans, not approximate ones.
  friend bool operator==(const TaskPlan& a, const TaskPlan& b) {
    return a.task == b.task && a.nodes == b.nodes && a.available == b.available &&
           a.reserve_from == b.reserve_from && a.node_release == b.node_release &&
           a.alpha == b.alpha && a.est_completion == b.est_completion &&
           a.rounds == b.rounds && a.node_ids == b.node_ids && a.node_cps == b.node_cps;
  }
};

}  // namespace rtdls::sched
