// A single processing node: commitment state plus idle/busy accounting.
#pragma once

#include "cluster/types.hpp"

namespace rtdls::cluster {

/// Processing node state tracked by the cluster model.
///
/// `free_at` is the node's *release time*: the instant it finishes the work
/// currently committed to it (or 0 / the last release when idle). The
/// accounting fields let the metrics module report how much Inserted Idle
/// Time each algorithm actually left on the table.
class Node {
 public:
  explicit Node(NodeId id) : id_(id) {}

  NodeId id() const { return id_; }

  /// Time at which this node is (or becomes) available.
  Time free_at() const { return free_at_; }

  /// Task currently committed to this node, or kNoTask.
  TaskId current_task() const { return current_task_; }

  /// Checks that the node may be booked over [start, end), changing
  /// nothing: throws std::invalid_argument when end < start and
  /// std::logic_error when start overlaps the current commitment.
  /// Cluster::commit_batch runs it on every node of a batch before it
  /// books any.
  void check_commit(Time start, Time end) const;

  /// Commits the node to `task` over [start, end), unchecked: the caller
  /// has just run check_commit(start, end) on this node. `usable_from` is
  /// when the node could have begun serving this task (its available time
  /// r_i in the plan, >= free_at); the gap [usable_from, start) is recorded
  /// as Inserted Idle Time - the waste the paper's new algorithms eliminate
  /// (OPR rules start at r_n > r_i; IIT-utilizing rules start at r_i, gap
  /// 0). Busy time [start, end) is added to the utilization accumulator.
  void book(TaskId task, Time usable_from, Time start, Time end) {
    if (start > usable_from) idle_gap_time_ += start - usable_from;
    busy_time_ += end - start;
    free_at_ = end;
    current_task_ = task;
    ++commitments_;
  }

  /// Checks that the node may be released at `at`, changing nothing:
  /// throws std::logic_error when `at` is past the committed release.
  /// Cluster::release_early_batch runs it on every node of a batch before
  /// it releases any.
  void check_release_early(Time at) const;

  /// Releases the node early (an actual completion beat the estimate),
  /// unchecked: the caller has just run check_release_early(at) on this
  /// node. The node becomes free at `at`, and the unused tail is credited
  /// back from busy accounting.
  void release_early(Time at) {
    busy_time_ -= free_at_ - at;
    free_at_ = at;
    current_task_ = kNoTask;
  }

  /// Total time the node spent computing/receiving committed work.
  Time busy_time() const { return busy_time_; }

  /// Total inserted idle time: gaps where the node was free but waiting for
  /// a task that had already reserved it (plus scheduling gaps).
  Time idle_gap_time() const { return idle_gap_time_; }

  /// Number of subtask commitments this node served.
  std::size_t commitments() const { return commitments_; }

  /// Restores an exact accounting state captured by a snapshot (the service
  /// layer's crash recovery). The committed-task identity is not preserved -
  /// planning only ever reads free_at, and the accounting fields are report
  /// material - so a restored node carries kNoTask.
  void restore(Time free_at, Time busy_time, Time idle_gap_time, std::size_t commitments) {
    free_at_ = free_at;
    current_task_ = kNoTask;
    busy_time_ = busy_time;
    idle_gap_time_ = idle_gap_time;
    commitments_ = commitments;
  }

  /// Returns the node to its initial idle state (run-to-run reuse).
  void reset() {
    free_at_ = 0.0;
    current_task_ = kNoTask;
    busy_time_ = 0.0;
    idle_gap_time_ = 0.0;
    commitments_ = 0;
  }

 private:
  NodeId id_;
  Time free_at_ = 0.0;
  TaskId current_task_ = kNoTask;
  Time busy_time_ = 0.0;
  Time idle_gap_time_ = 0.0;
  std::size_t commitments_ = 0;
};

}  // namespace rtdls::cluster
