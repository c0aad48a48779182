// The admission driver: the Figure-2 lifecycle of a task, written once for
// the simulator and the daemon's admission shard.
//
// An arriving task runs the schedulability test: the warm session
// (AdmissionController::test_incremental) over the driver's live Cluster, or
// for a calendar rule the full test() over the NodeCalendar's reservation
// ends. An accepted temp schedule replaces the waiting suffix it re-planned,
// so a waiting task is re-planned by later arrivals until it commits. Each
// waiting plan is due at commit_at = max(its commit_time(), the `now` that
// adopted it). commit_due(t) books every plan due by t, earliest commit_at
// first and ties by queue position, and tells the warm session: it advances
// past a plan whose booked reservations are exactly the plan's releases, and
// drops otherwise. The armed cross-check holds what the driver adopts, not
// the session's copy, to the full test().
//
// The caller owns the clock and the tasks: it calls commit_due before it
// moves its clock past a due instant, and keeps each admitted task alive
// until the commit hook (or cancel) lets it go.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "cluster/calendar.hpp"
#include "cluster/cluster.hpp"
#include "sched/admission.hpp"

namespace rtdls::sched {

/// Called once per committed plan, after its reservations are booked and
/// the session is told: the task, its plan and the node id of every plan
/// slot. The hook may release nodes early through AdmissionDriver::cluster();
/// the driver then drops the warm session.
using CommitHook = std::function<void(const workload::Task& task, const TaskPlan& plan,
                                      const std::vector<cluster::NodeId>& ids)>;

class AdmissionDriver {
 public:
  /// The waiting queue in policy order, one column per field.
  struct Queue {
    std::vector<const workload::Task*> tasks;  ///< the `waiting` list of the test
    /// The objects the outcomes handed out (not copies), so on_commit()
    /// recognizes them by identity; restored entries hold decoded ones.
    std::vector<std::shared_ptr<const TaskPlan>> plans;
    std::vector<Time> commit_at;  ///< max(plan commit_time(), adopting now)
  };

  /// `rule` must outlive the driver.
  AdmissionDriver(const cluster::ClusterParams& params, Policy policy,
                  const PartitionRule* rule);

  /// Runs the Figure-2 test for `task` at `now`: test_incremental() over the
  /// cluster, or for a calendar rule test() over each node's last
  /// reservation end, floored at `now`. On acceptance the outcome's schedule
  /// moves into the queue, replacing the entries it re-planned.
  AdmissionOutcome admit(const workload::Task& task, Time now);

  /// Debug: each admit of a non-calendar rule also runs the full test() on
  /// the pre-admission queue at the same `now`, and throws std::logic_error
  /// unless the adopted result matches it: acceptance, reason and blocking
  /// task, and on acceptance the task and the plan (bitwise) at every queue
  /// position, the kept prefix included.
  void set_cross_check(bool on) { cross_check_ = on; }

  /// Commits every waiting plan with commit_at <= t, earliest first, ties by
  /// queue position, calling `hook` after each. Returns how many committed.
  std::size_t commit_due(Time t, const CommitHook& hook);

  /// Drops waiting task `id` without booking it; false when not waiting.
  bool cancel(cluster::TaskId id);

  /// Queue position of waiting task `id`, or waiting() when it is not there.
  std::size_t find(cluster::TaskId id) const;
  std::size_t waiting() const { return queue_.tasks.size(); }
  const Queue& queue() const { return queue_; }

  /// Replaces the queue (snapshot restore) and drops the warm session.
  void restore_queue(Queue queue);

  /// Empties the queue, the cluster and the calendar, and drops the warm
  /// session with its statistics: the start of a fresh run.
  void reset();

  cluster::Cluster& cluster() { return cluster_; }
  const cluster::Cluster& cluster() const { return cluster_; }
  /// The reservations of a calendar rule; null for every other rule.
  cluster::NodeCalendar* calendar() { return calendar_ ? &*calendar_ : nullptr; }
  const cluster::NodeCalendar* calendar() const { return calendar_ ? &*calendar_ : nullptr; }
  AdmissionController& controller() { return controller_; }
  const AdmissionController& controller() const { return controller_; }

 private:
  /// The stateless test() of `task` against the queue at `now`.
  AdmissionOutcome full_test(const workload::Task& task, Time now) const;
  /// Throws unless the queue just adopted from `outcome` is `reference`.
  void check_adopted(const AdmissionOutcome& reference,
                     const AdmissionOutcome& outcome) const;
  void erase(std::size_t position);

  AdmissionController controller_;
  cluster::Cluster cluster_;
  std::optional<cluster::NodeCalendar> calendar_;
  bool cross_check_ = false;
  Queue queue_;
  std::vector<cluster::NodeId> ids_;  ///< the committing plan's node ids
};

}  // namespace rtdls::sched
