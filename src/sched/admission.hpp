// The Figure-2 schedulability test: when a new task arrives, re-plan the new
// task plus every *waiting* (admitted but not yet started) task in policy
// order against the cluster's current availability. If every task in the
// temp list meets its deadline, the temp schedule is accepted and replaces
// the waiting tasks' plans; otherwise the new task is rejected and the
// previous (still valid) plans are kept.
//
// Two entry points implement the same test:
//  * test() is the stateless reference: it re-plans the full temp list on
//    every call, exactly as Figure 2 is written. Calendar (backfilling)
//    rules always take it.
//  * test_incremental() exploits the fact that non-calendar plans are a
//    deterministic function of (task, cluster params, availability state):
//    while the cluster's availability version is unchanged and the waiting
//    set (kept in policy order by the caller) has only grown through
//    accepted arrivals, the prefix of the temp list before the new task's
//    insertion point has exactly the same inputs as the previous call, so
//    its cached plans are reused and only the suffix is re-planned. A
//    policy-order commit advances the cache in O(1) plans instead of
//    invalidating it. The outcomes are bit-identical to test(); the
//    driver's cross-check asserts it on what the driver adopts.
//
// Session state representation: a plan touches only k << N availability
// entries, so the session stores one sparse delta per planned task - its k
// sorted releases in flat columns, O(k) bytes (cluster/availability_delta)
// - instead of the dense N-wide row per task it used to copy (O(Q*N) bytes
// per arrival burst). The base row is not stored at all: whenever the
// session is reusable, its row head_ equals the cluster's live availability
// view at `now` (same availability version, and either the last call's
// `now` or no node freeing before either instant), so planning from it
// opens that view, and a plan reads only the positions it inspects. Dense
// rows survive only as
//  * checkpoints every ~sqrt(N) planned positions above the base, and
//  * the last dense row a call planned against (top_), kept together with
//    the deltas after it: the last plan's releases are merged into the
//    frontier only when a later call plans from it.
// A suffix re-plan starting mid-queue rebuilds its dense starting row from
// the closest of these at or below the insertion point (or the live view)
// and replays the bounded delta chain up to it - bit-identical to the row
// the dense representation held, because the replay runs the exact merge
// that produced the row originally. A partly filled view never outlives
// the call that opened it: a commit or a view at another `now` invalidates
// it. Policy-front commits still advance in O(1) (head offset);
// rejected/replaced suffixes roll back by truncating the delta stack. Peak
// memory per burst drops from O(Q*N) to O(Q*k + sqrt(N)*N), measured by
// session_memory()/peak_session_memory().
//
// The one driver (sched::AdmissionDriver, shared by the simulator and the
// daemon's admission shard) picks the entry point by rule: test() over the
// calendar's reservation ends for a calendar rule, test_incremental() over
// its live Cluster for every other rule. commit_plan() books an accepted
// plan back into the cluster or calendar.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "cluster/availability_delta.hpp"
#include "cluster/cluster.hpp"
#include "sched/partition_rule.hpp"
#include "sched/policy.hpp"

namespace rtdls::sched {

/// One planned entry of an accepted temp schedule. The plan is immutable
/// and shared: the incremental session keeps a handle to the same object it
/// hands out, so a driver that adopts the schedule copies no column, and
/// on_commit() recognizes the committed plan by identity.
struct ScheduledTask {
  const workload::Task* task = nullptr;
  std::shared_ptr<const TaskPlan> plan;
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
  /// `node_ids`: owners of the free_times entries, read only under a
  /// heterogeneous speed profile (nodes stop being interchangeable once
  /// speeds differ). Empty means free_times[i] belongs to node i. The pair
  /// columns are co-floored and co-sorted into the strict (time, id) order
  /// the het rules plan against.
  AdmissionOutcome test(const workload::Task* new_task,
                        const std::vector<const workload::Task*>& waiting,
                        const cluster::ClusterParams& params,
                        std::vector<Time> free_times, Time now,
                        const cluster::NodeCalendar* calendar = nullptr,
                        std::vector<cluster::NodeId> node_ids = {}) const;

  /// Incremental Figure-2 test for non-calendar rules (throws
  /// std::logic_error when rule().uses_calendar()).
  ///
  /// Contract with the caller (sched::AdmissionDriver):
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
  /// invalidates it. Equal means the same object (the one this controller
  /// handed out) or, failing that, bitwise equal: a rejected call's rebuild
  /// re-plans the front into a new object while the caller holds the old.
  void on_commit(const workload::Task* task, const std::shared_ptr<const TaskPlan>& plan,
                 std::uint64_t cluster_version);

  /// Drops the incremental session state (e.g. at the start of a run).
  void invalidate();

  /// Session availability-state footprint. `bytes` is what the delta stack,
  /// checkpoints and top_ actually hold (size-based, so it is
  /// deterministic); `dense_equivalent_bytes` is what the historical
  /// one-dense-row-per-task representation would hold for the same session
  /// (rows * N * entry width) - the denominator of the memory-reduction
  /// claims in tests and BM_AdmissionBurst.
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
  Policy policy_;
  const PartitionRule* rule_;

  // --- incremental session state (see test_incremental) ---
  // Storage position head_ + i corresponds to live waiting position i, so a
  // policy-front commit advances in O(1) by bumping head_ (compacted once
  // the consumed prefix outweighs the live part). Invariant when
  // cache_valid_: the live view of order_ is the waiting queue in policy
  // order; "row r" (r = head_ + i) is the availability row before planning
  // live entry i, with row head_ the live index view at floor_, the `now`
  // of the last call; plans_[r] (i < planned_) is live entry i's plan
  // against row r, and delta r of deltas_ is the sparse edit taking row r
  // to row r + 1, i.e. the plan's k sorted releases (with their ids when
  // the rows carry ids); rows exist for live 0..planned_. Dense rows are
  // materialized only in checkpoints_ (ascending positions; those below
  // head_ are stale until compaction drops them; storage recycled through
  // checkpoint_pool_) and top_ (row top_pos_, kNpos when none).
  // plans_ holds handles to the very objects the outcomes hand out, so
  // synced_prefix_ counts the leading live entries whose plan objects the
  // caller is known to hold (the same objects, not copies).
  struct Checkpoint {
    std::size_t pos = 0;
    cluster::AvailabilityRow row;
  };

  static constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

  Checkpoint take_checkpoint(std::size_t pos);
  void retire_checkpoint(Checkpoint&& checkpoint);
  void compact_head();
  /// Brings work_ to row `pos` (absolute, head_ <= pos <= head_ + planned_)
  /// from the closest row at hand: top_ (swapped in when `take_top`, else
  /// copied) or a checkpoint, each at or below `pos`, or else the live view
  /// at head_ - left unfilled when `pos` is head_ itself. Then it replays
  /// the delta chain up to `pos`.
  void materialize_row(std::size_t pos, bool take_top, const cluster::Cluster& cluster,
                       Time now);
  /// Merges the recorded deltas up to row `pos` into work_ (the session's
  /// below `suffix`, the call's scratch ones from it on).
  void catch_up(std::size_t pos, std::size_t suffix);
  /// Ends a call's use of work_: a dense session row becomes top_ (on
  /// acceptance every row up to the frontier is one), a partly filled view
  /// is dropped; rows above `suffix` that an acceptance replaced are
  /// forgotten.
  void settle_work(bool accepted, std::size_t suffix);
  void note_session_peak();

  bool cache_valid_ = false;
  std::uint64_t cache_version_ = 0;
  std::size_t node_count_ = 0;
  bool with_ids_ = false;  ///< rows carry node ids (heterogeneous params)
  std::size_t head_ = 0;
  std::size_t planned_ = 0;
  std::size_t synced_prefix_ = 0;
  std::size_t checkpoint_every_ = 1;  ///< ~sqrt(N) cadence
  Time floor_ = 0.0;                  ///< the last call's `now`
  std::vector<const workload::Task*> order_;
  std::vector<std::shared_ptr<const TaskPlan>> plans_;
  cluster::DeltaColumns deltas_;
  std::vector<Checkpoint> checkpoints_;
  std::vector<Checkpoint> checkpoint_pool_;    ///< retired rows, capacity kept
  /// The last dense row a call planned against, at top_pos_ (kNpos when
  /// none): after an acceptance that is the last task's row, one delta
  /// behind the frontier, so appending at the end replays that one delta in
  /// place instead of copying a frontier row.
  std::size_t top_pos_ = kNpos;
  cluster::AvailabilityRow top_;
  SessionMemory peak_;

  // Scratch reused across calls (no per-arrival allocation steady-state).
  /// The row the next plan reads: the live view, or a dense row. Holds row
  /// work_pos_ within a test_incremental call; scratch_merged_ records that
  /// a merged delta of the call's scratch suffix made it a row that exists
  /// only if the suffix is adopted.
  cluster::AvailabilityView work_;
  std::size_t work_pos_ = kNpos;
  bool scratch_merged_ = false;
  std::vector<std::shared_ptr<const TaskPlan>> scratch_plans_;
  cluster::DeltaColumns scratch_deltas_;
  std::vector<Checkpoint> scratch_checkpoints_;
  /// apply_releases' and floor_and_sort's buffer, and the sorted run of the
  /// plan a call just recorded; mutable so the const (stateless) test()
  /// reuses it too. Consistent with the single-thread affinity of the
  /// controller (like the rules' plan scratch, one instance per simulator).
  mutable cluster::AvailabilityRow merge_scratch_;
};

/// Books an accepted plan's reservations at `now` - the commit step shared
/// by every driver. Calendar plans (non-null `calendar`) reserve the exact
/// intervals they chose; otherwise `cluster` commits, as one batch,
/// heterogeneous plans on the node ids they were computed for and
/// homogeneous plans on the plan.nodes earliest-free nodes at `now` (ties
/// by id). On return `ids` holds the node id of every plan slot.
void commit_plan(const TaskPlan& plan, Time now, cluster::Cluster& cluster,
                 cluster::NodeCalendar* calendar, std::vector<cluster::NodeId>& ids);

}  // namespace rtdls::sched
