// The cluster simulator: drives a task trace through an admission-controlled
// cluster, reproducing the paper's discrete simulation (Section 5).
//
// Lifecycle of a task:
//   arrival --(Figure-2 schedulability test)--> accepted (waiting, re-plannable)
//           \-> rejected (counted; previously admitted tasks keep their plans)
//   waiting --(clock reaches its plan's first resource commitment)--> committed
//   committed --> nodes reserved per plan; actual rollout recorded; nodes
//                 released at the estimate (default) or the actual finish
//
// Waiting tasks are re-planned on every arrival (TempTaskList = new +
// waiting); committed tasks are immutable. Commit events are versioned so a
// re-plan invalidates stale commitments in the event queue.
//
// Engine notes: the waiting queue is kept in policy order so the admission
// controller's incremental mode can re-plan only from the new task's
// insertion point (see sched/admission.hpp); arrivals are merged from the
// (sorted) trace instead of being enqueued, so the event heap only carries
// commit events; and run() resets per-run state in place, which lets one
// simulator instance serve back-to-back sweep cells without reallocating.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "cluster/calendar.hpp"
#include "cluster/cluster.hpp"
#include "sched/admission.hpp"
#include "sched/het_planner.hpp"
#include "sched/registry.hpp"
#include "sim/event_queue.hpp"
#include "sim/exec_model.hpp"
#include "sim/metrics.hpp"
#include "sim/schedule_log.hpp"
#include "sim/task_source.hpp"
#include "workload/task.hpp"

namespace rtdls::sim {

/// When a committed task's nodes become available to later tasks.
enum class ReleasePolicy {
  kEstimate,  ///< at the plan's estimated completion (the Figure-2 quantity)
  kActual,    ///< at each node's actual rollout finish (<= estimate, Thm. 4)
};

/// Simulator configuration.
struct SimulatorConfig {
  cluster::ClusterParams params;
  ReleasePolicy release_policy = ReleasePolicy::kEstimate;

  /// Model the head node's link as shared across concurrently-distributing
  /// tasks (ablation of the paper's dedicated-channel assumption). With a
  /// shared link the Theorem-4 estimate no longer upper-bounds actual
  /// completions; misses are counted in SimMetrics::deadline_misses.
  bool shared_link = false;

  /// Check actual rollouts against estimates/deadlines (cheap; keep on).
  bool validate = true;

  /// Use the incremental admission session for non-calendar rules (schedules
  /// are identical to the full Figure-2 re-plan; see sched/admission.hpp).
  /// Off: every arrival runs the full stateless test - the reference mode
  /// the property tests compare against.
  bool incremental_admission = true;

  /// Debug: assert on every arrival that the incremental outcome matches
  /// the full Figure-2 test bit-for-bit (throws std::logic_error if not).
  bool cross_check_admission = false;

  /// When non-null, every committed per-node reservation is appended to
  /// this log (Gantt export; see sim/schedule_log.hpp). Not owned.
  ScheduleLog* schedule_log = nullptr;

  /// Output-data extension: result volume as a fraction of the input
  /// (delta). When > 0, execution rollouts include result returns over the
  /// channel; pair with *-IO rules of the same delta so the admission
  /// estimates budget the same traffic (a plain rule with output_ratio > 0
  /// will be flagged through theorem4_violations/deadline_misses - that
  /// mismatch is the point of the output ablation).
  double output_ratio = 0.0;
};

/// Runs one algorithm over one task trace.
class ClusterSimulator {
 public:
  /// `algorithm` must outlive the simulator.
  ClusterSimulator(SimulatorConfig config, const sched::Algorithm& algorithm);

  /// Simulates `tasks` (must be sorted by arrival time; ids unique).
  /// `horizon` is the nominal TotalSimulationTime used for utilization
  /// accounting (arrivals beyond it should not be in `tasks`). May be
  /// called repeatedly; per-run state is reset in place. Equivalent to
  /// run_stream over a VectorTaskSource (it is exactly that).
  SimMetrics run(const std::vector<workload::Task>& tasks, Time horizon);

  /// Same event loop, pulling arrivals from `source` instead of a
  /// materialized vector - the bounded-memory replay path (pair with
  /// StreamingTaskSource over a TraceReader). Arrivals must be
  /// non-decreasing; a mid-stream decrease throws std::invalid_argument at
  /// the offending arrival (a streamed trace cannot be pre-checked).
  /// Schedules and metrics are bit-identical to run() on the same tasks.
  SimMetrics run_stream(TaskSource& source, Time horizon);

 private:
  /// An admitted task awaiting its commit instant. `plan` is the object the
  /// admission outcome handed out (shared with the controller's session, not
  /// a copy), so on_commit() recognizes it by identity.
  struct WaitingEntry {
    const workload::Task* task = nullptr;
    std::shared_ptr<const sched::TaskPlan> plan;
    std::uint64_t version = 0;
  };

  /// Commit event payload: versions invalidate superseded plans.
  struct CommitEvent {
    cluster::TaskId id = cluster::kNoTask;
    std::uint64_t version = 0;
  };

  void handle_arrival(const workload::Task& task);
  void handle_commit(cluster::TaskId id, std::uint64_t version);
  /// Returns true when the cluster's post-commit availability equals the
  /// plan's releases exactly (no early release), i.e. the admission session
  /// may advance instead of invalidating.
  bool commit_task(Time now, const WaitingEntry& entry);
  void adopt_schedule(std::size_t reused_prefix,
                      std::vector<sched::ScheduledTask>& schedule);

  SimulatorConfig config_;
  const sched::Algorithm* algorithm_;
  sched::AdmissionController controller_;
  /// Arrival source of the in-flight run (admitted/retired notifications
  /// let a streaming source bound chunk lifetimes). Only valid mid-run.
  TaskSource* source_ = nullptr;

  // Per-run state (reset in place by run()).
  cluster::Cluster cluster_;
  /// Committed reservations with gap information; engaged only when the
  /// algorithm's rule uses_calendar() (backfilling comparators).
  std::optional<cluster::NodeCalendar> calendar_;
  std::vector<WaitingEntry> waiting_;  ///< policy order (see sched/policy.hpp)
  EventQueue<CommitEvent> queue_;
  Time now_ = 0.0;
  std::uint64_t next_version_ = 1;
  Time channel_free_ = 0.0;  // shared-link mode only
  SimMetrics metrics_;

  // Scratch reused across arrivals/commits (no steady-state allocation).
  std::vector<const workload::Task*> waiting_view_;
  std::vector<cluster::NodeId> ids_scratch_;
  std::vector<cluster::NodeId> by_release_scratch_;
  std::vector<Time> actual_sorted_scratch_;
  std::vector<Time> release_at_scratch_;
  /// The committed task's rolled-out timeline (`input`), with the result
  /// columns and their order under the output-data extension.
  ResultTimeline timeline_;
  sched::het::PlannerScratch het_roll_scratch_;
};

/// Convenience: run one named algorithm over a trace.
SimMetrics simulate(const SimulatorConfig& config, const std::string& algorithm_name,
                    const std::vector<workload::Task>& tasks, Time horizon);

}  // namespace rtdls::sim
