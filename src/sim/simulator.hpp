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
// waiting); committed tasks are immutable. The waiting queue, adoption and
// due commits live in sched::AdmissionDriver, shared with the daemon's
// admission shard; the simulator pulls arrivals from a TaskSource, commits
// what is due up to each one (commits at an arrival's instant run first),
// and drains the rest after the last. Its commit hook rolls the plan out,
// checks the paper's two promises, records the metrics and releases nodes
// early under ReleasePolicy::kActual. run() resets per-run state in place,
// which lets one simulator instance serve back-to-back sweep cells without
// reallocating.
#pragma once

#include <string>
#include <vector>

#include "sched/driver.hpp"
#include "sched/het_planner.hpp"
#include "sched/registry.hpp"
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

  /// Debug: on every arrival of a non-calendar rule, hold the waiting queue
  /// the driver adopts to the full Figure-2 test, bit for bit (throws
  /// std::logic_error if not; see sched::AdmissionDriver::set_cross_check).
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

  /// Same loop, pulling arrivals from `source` instead of a
  /// materialized vector - the bounded-memory replay path (pair with
  /// StreamingTaskSource over a TraceReader). Arrivals must be
  /// non-decreasing; a mid-stream decrease throws std::invalid_argument at
  /// the offending arrival (a streamed trace cannot be pre-checked).
  /// Schedules and metrics are bit-identical to run() on the same tasks.
  SimMetrics run_stream(TaskSource& source, Time horizon);

 private:
  void handle_arrival(const workload::Task& task);
  /// The commit hook: rolls the committed plan out, checks the paper's two
  /// promises, records the metrics, releases nodes early under
  /// ReleasePolicy::kActual and retires the task from the source.
  void record_commit(const workload::Task& task, const sched::TaskPlan& plan,
                     const std::vector<cluster::NodeId>& ids);

  SimulatorConfig config_;
  const sched::Algorithm* algorithm_;
  /// Arrival source of the in-flight run (admitted/retired notifications
  /// let a streaming source bound chunk lifetimes). Only valid mid-run.
  TaskSource* source_ = nullptr;

  // Per-run state (reset in place by run()).
  sched::AdmissionDriver driver_;
  Time channel_free_ = 0.0;  // shared-link mode only
  SimMetrics metrics_;

  // Scratch reused across commits (no steady-state allocation).
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
