// The Figure-2 schedulability test: when a new task arrives, re-plan the new
// task plus every *waiting* (admitted but not yet started) task in policy
// order against the cluster's current availability. If every task in the
// temp list meets its deadline, the temp schedule is accepted and replaces
// the waiting tasks' plans; otherwise the new task is rejected and the
// previous (still valid) plans are kept.
//
// Two entry points implement the same test:
//  * test() is the stateless reference: it re-plans the full temp list on
//    every call, exactly as Figure 2 is written.
//  * test_incremental() exploits the fact that non-calendar plans are a
//    deterministic function of (task, cluster params, availability state):
//    while the cluster's availability version is unchanged and the waiting
//    set (kept in policy order by the caller) has only grown through
//    accepted arrivals, the prefix of the temp list before the new task's
//    insertion point has exactly the same inputs as the previous call, so
//    its cached plans are reused and only the suffix is re-planned. A
//    policy-order commit advances the cache in O(1) plans instead of
//    invalidating it. The outcomes are bit-identical to test() (asserted
//    when cross-check mode is on).
//
// Session state representation: a plan touches only k << N availability
// entries, so the session stores one sparse delta per planned task - its k
// sorted releases in flat columns, O(k) bytes (cluster/availability_delta)
// - instead of the dense N-wide row per task it used to copy (O(Q*N) bytes
// per arrival burst). Dense rows survive only as
//  * checkpoints every ~sqrt(N) planned positions (plus opportunistic ones
//    where suffix re-plans actually land), and
//  * the materialized frontier row after the last planned task (the common
//    append-at-the-end planning start).
// A suffix re-plan starting mid-queue rebuilds its dense starting row by
// copying the nearest checkpoint at or before the insertion point and
// replaying the bounded delta chain up to it - bit-identical to the row the
// dense representation held, because the replay runs the exact merge that
// produced the row originally. Policy-front commits still advance in O(1)
// (head offset); rejected/replaced suffixes roll back by truncating the
// delta stack. Peak memory per burst drops from O(Q*N) to
// O(Q*k + sqrt(N)*N), measured by session_memory()/peak_session_memory().
//
// Drivers (the simulator and the daemon's admission shard) do not pick
// among these themselves: admit() runs the test against their live Cluster
// or NodeCalendar, and commit_plan() books an accepted plan back into it.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "cluster/availability_delta.hpp"
#include "cluster/cluster.hpp"
#include "sched/partition_rule.hpp"
#include "sched/planner_batch.hpp"
#include "sched/policy.hpp"

namespace rtdls::sched {

/// One planned entry of an accepted temp schedule.
struct ScheduledTask {
  const workload::Task* task = nullptr;
  TaskPlan plan;
};

/// Result of a schedulability test.
struct AdmissionOutcome {
  bool accepted = false;
  dlt::Infeasibility reason = dlt::Infeasibility::kNone;  ///< why it failed
  cluster::TaskId blocking_task = cluster::kNoTask;  ///< task that missed in the temp list

  /// Number of leading waiting-queue entries whose plans are unchanged from
  /// what the caller already holds (incremental path only; 0 for test()).
  /// `schedule` holds the temp-list entries from this position onward.
  std::size_t reused_prefix = 0;

  std::vector<ScheduledTask> schedule;  ///< plans in policy order (accepted only)
};

/// Admission logic: combines an ordering policy (Decision #1) with a
/// partition rule (Decisions #2 and #3). test() is stateless; the
/// incremental session state only caches results derivable from the
/// caller's inputs and never changes outcomes.
class AdmissionController {
 public:
  AdmissionController(Policy policy, const PartitionRule* rule);

  Policy policy() const { return policy_; }
  const PartitionRule& rule() const { return *rule_; }

  /// Runs the schedulability test of Figure 2.
  ///
  /// `free_times`: release times of all N nodes floored at `now` (need not
  /// be sorted; a sorted copy is taken). `waiting`: admitted, uncommitted
  /// tasks. `new_task` may be null to validate the waiting queue alone.
  ///
  /// `calendar`: required when the rule uses_calendar() (backfilling); the
  /// controller plans each temp-schedule task against a private copy into
  /// which earlier tasks' reservations are inserted, so the accepted plans
  /// are mutually conflict-free.
  ///
  /// `node_ids`: owners of the free_times entries, required meaningful only
  /// when params.heterogeneous() (nodes stop being interchangeable once
  /// speeds differ). Empty means free_times[i] belongs to node i. The pair
  /// columns are co-floored and co-sorted into the strict (time, id) order
  /// the het rules plan against.
  AdmissionOutcome test(const workload::Task* new_task,
                        const std::vector<const workload::Task*>& waiting,
                        const cluster::ClusterParams& params,
                        std::vector<Time> free_times, Time now,
                        const cluster::NodeCalendar* calendar = nullptr,
                        std::vector<cluster::NodeId> node_ids = {}) const;

  /// The admission step shared by every driver: runs the Figure-2 test for
  /// `new_task` against live state, picking its input there -
  ///  * calendar rules: each node's release is the end of its last
  ///    reservation in `calendar` (floored at `now`; required), full test();
  ///  * `incremental`: the warm session over `cluster` (test_incremental);
  ///  * otherwise the stateless test() over `cluster`'s sorted snapshot at
  ///    `now` (with the owning node ids when params are heterogeneous).
  AdmissionOutcome admit(const workload::Task& new_task,
                         const std::vector<const workload::Task*>& waiting,
                         const cluster::ClusterParams& params,
                         const cluster::Cluster& cluster,
                         const cluster::NodeCalendar* calendar, Time now, bool incremental);

  /// Incremental Figure-2 test for non-calendar rules (throws
  /// std::logic_error when rule().uses_calendar()).
  ///
  /// Contract with the caller (the simulator):
  ///  * `waiting` is in policy order and, between calls, only changes
  ///    through this controller's outcomes (accepts) and on_commit();
  ///  * `cluster` is the availability source; its version() must be bumped
  ///    by every node mutation (Cluster does this).
  /// Violating the contract cannot produce wrong schedules - the cache
  /// revalidates against the waiting list and the availability version and
  /// falls back to a full re-plan - it only costs speed.
  AdmissionOutcome test_incremental(const workload::Task& new_task,
                                    const std::vector<const workload::Task*>& waiting,
                                    const cluster::ClusterParams& params,
                                    const cluster::Cluster& cluster, Time now);

  /// Informs the incremental session that `task` left the waiting queue by
  /// committing `plan`, with `cluster_version` the availability version
  /// right after its reservations were applied. A policy-order-front commit
  /// whose plan equals the session's cached front plan advances the cache
  /// (the remaining plans' inputs are unchanged because the committed
  /// reservations equal the cached planning state); any other commit
  /// invalidates it.
  void on_commit(const workload::Task* task, const TaskPlan& plan,
                 std::uint64_t cluster_version);

  /// Drops the incremental session state (e.g. at the start of a run).
  void invalidate();

  /// Debug mode: every test_incremental() also runs the full stateless
  /// test() and throws std::logic_error unless the outcomes (acceptance,
  /// reason, blocking task, and every plan, bitwise) are identical.
  void set_cross_check(bool on) { cross_check_ = on; }
  bool cross_check() const { return cross_check_; }

  /// Session availability-state footprint. `bytes` is what the delta stack,
  /// checkpoints, frontier row, and per-row front times actually hold
  /// (size-based, so it is deterministic); `dense_equivalent_bytes` is what
  /// the historical one-dense-row-per-task representation would hold for the
  /// same session (rows * N * entry width) - the denominator of the memory-
  /// reduction claims in tests and BM_AdmissionBurst.
  struct SessionMemory {
    std::size_t bytes = 0;
    std::size_t dense_equivalent_bytes = 0;
  };
  SessionMemory session_memory() const;

  /// High-water marks of session_memory() since construction or the last
  /// reset_session_stats() (invalidate() does NOT reset them: a burst's
  /// peak must survive the session rebuilds inside it).
  SessionMemory peak_session_memory() const { return peak_; }
  void reset_session_stats() { peak_ = SessionMemory{}; }

 private:
  void verify_against_full(const workload::Task& new_task,
                           const std::vector<const workload::Task*>& waiting,
                           const cluster::ClusterParams& params,
                           const cluster::Cluster& cluster, Time now,
                           const AdmissionOutcome& outcome) const;

  Policy policy_;
  const PartitionRule* rule_;
  bool cross_check_ = false;

  // --- incremental session state (see test_incremental) ---
  // Storage position head_ + i corresponds to live waiting position i, so a
  // policy-front commit advances in O(1) by bumping head_ (compacted once
  // the consumed prefix outweighs the live part). Invariant when
  // cache_valid_: the live view of order_ is the waiting queue in policy
  // order; "row r" (r = head_ + i) is the availability state before
  // planning live entry i, with row head_ the floored sorted snapshot the
  // session currently stands on; plans_[r] (i < planned_) is live entry
  // i's plan against row r, and delta r - the sparse edit taking row r to
  // row r + 1, i.e. the plan's k sorted releases (with id payloads for het
  // sessions) - lives at [delta_start(r), delta_end_[r]) of the flat
  // delta_times_/delta_ids_ columns (flat so the steady state allocates
  // nothing per planned task; see cluster::apply_delta's span form);
  // fronts_[r] is row r's first (minimum) entry, the O(1) "did `now`
  // overtake the snapshot" reuse check; rows exist for live 0..planned_.
  // Dense rows are materialized only in checkpoints_ (ascending positions,
  // always one at or before head_; storage recycled through
  // checkpoint_pool_) and top_times_/top_ids_, the row at position
  // head_ + planned_. synced_prefix_ counts the leading live entries whose
  // plans the caller is known to hold verbatim.
  struct Checkpoint {
    std::size_t pos = 0;
    std::vector<Time> times;
    std::vector<cluster::NodeId> ids;  ///< het sessions only
  };

  std::size_t delta_start(std::size_t r) const {
    return r == 0 ? 0 : delta_end_[r - 1];
  }
  Checkpoint take_checkpoint(std::size_t pos);
  void retire_checkpoint(Checkpoint&& checkpoint);
  void compact_head();
  /// Copies row `pos` (absolute) into work_state_/work_ids_: nearest
  /// checkpoint at or before `pos`, then the delta chain up to `pos`. When
  /// the replayed chain is long, the rebuilt row is inserted as an
  /// opportunistic checkpoint (repeated suffix re-plans around the same
  /// insertion point then replay nothing).
  void materialize_row(std::size_t pos);
  void note_session_peak();

  bool cache_valid_ = false;
  std::uint64_t cache_version_ = 0;
  std::size_t node_count_ = 0;
  std::size_t head_ = 0;
  std::size_t planned_ = 0;
  std::size_t synced_prefix_ = 0;
  std::size_t checkpoint_every_ = 1;  ///< ~sqrt(N) cadence
  std::vector<const workload::Task*> order_;
  std::vector<TaskPlan> plans_;
  std::vector<std::size_t> delta_end_;         ///< per position: end offset
  std::vector<Time> delta_times_;              ///< flat sorted-release runs
  std::vector<cluster::NodeId> delta_ids_;     ///< het: aligned id payloads
  std::vector<Time> fronts_;
  std::vector<Checkpoint> checkpoints_;
  std::vector<Checkpoint> checkpoint_pool_;    ///< retired rows, capacity kept
  /// Cursor cache: the row most recently rebuilt by materialize_row, kept
  /// dense. Policies insert consecutive arrivals into nearby queue
  /// positions (EDF deadlines trend upward with arrival time), so the next
  /// materialization usually replays the few deltas past the cursor rather
  /// than a whole checkpoint chain. Invalidation: an adoption that replaces
  /// rows at or below the cursor, session rebuilds, and compaction past it.
  bool cursor_valid_ = false;
  std::size_t cursor_pos_ = 0;
  std::vector<Time> cursor_times_;
  std::vector<cluster::NodeId> cursor_ids_;
  std::vector<Time> top_times_;
  bool het_session_ = false;
  std::vector<cluster::NodeId> top_ids_;
  SessionMemory peak_;

  // Scratch reused across calls (no per-arrival allocation steady-state).
  std::vector<Time> live_times_;               ///< admit(): stateless input
  std::vector<cluster::NodeId> live_ids_;
  std::vector<Time> work_state_;
  std::vector<cluster::NodeId> work_ids_;
  std::vector<TaskPlan> scratch_plans_;
  std::vector<std::size_t> scratch_delta_end_;
  std::vector<Time> scratch_delta_times_;
  std::vector<cluster::NodeId> scratch_delta_ids_;
  std::vector<Time> scratch_fronts_;
  std::vector<Checkpoint> scratch_checkpoints_;
  /// Batched hard-rejection screen over the tasks a test_incremental call
  /// may plan (rules with hard_rejects_at_front() only): one SoA gather of
  /// (sigma*Cms, deadline) columns per call, then each planning step checks
  /// the columns before paying for rule_->plan(). Outcome-identical by the
  /// contract on PartitionRule::hard_rejects_at_front; the stateless test()
  /// stays unscreened as the cross-check reference.
  het::QueueScreen screen_;
  std::vector<const workload::Task*> screen_tasks_;
  /// apply_releases' merge buffer; mutable so the const (stateless) test()
  /// reuses it too. Consistent with the single-thread affinity of the
  /// controller (like the rules' plan scratch, one instance per simulator).
  mutable std::vector<Time> merge_scratch_;
  /// Het apply's (release, id) pair buffer, same mutability rationale.
  mutable std::vector<std::pair<Time, cluster::NodeId>> het_merge_scratch_;
};

/// Books an accepted plan's reservations at `now` - the commit step shared
/// by every driver. Calendar plans (non-null `calendar`) reserve the exact
/// intervals they chose; otherwise `cluster` commits heterogeneous plans on
/// the node ids they were computed for, and homogeneous plans on the
/// plan.nodes earliest-free nodes at `now` (ties by id). On return `ids`
/// holds the node id of every plan slot.
void commit_plan(const TaskPlan& plan, Time now, cluster::Cluster& cluster,
                 cluster::NodeCalendar* calendar, std::vector<cluster::NodeId>& ids);

}  // namespace rtdls::sched
