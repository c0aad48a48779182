// Committed-schedule logging: an optional record of every reservation the
// simulator commits, exportable as CSV for Gantt-style inspection (which
// node ran which task when, where the Inserted Idle Times sat, how the
// DLT rule fills them). Enabled via SimulatorConfig::schedule_log.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "cluster/types.hpp"

namespace rtdls::sim {

/// One committed per-node reservation.
struct ScheduleEntry {
  cluster::TaskId task = 0;
  cluster::NodeId node = 0;
  cluster::Time usable_from = 0.0;  ///< the node's availability r_i for this task
  cluster::Time start = 0.0;        ///< reservation start (r_i, or r_n for OPR)
  cluster::Time end = 0.0;          ///< reservation end (release)
  double alpha = 0.0;               ///< load fraction carried by this node
  double cps = 0.0;                 ///< node's unit processing cost for this task
  /// Actual rollout finish of this slot's work, computed from the node's
  /// own speed (<= end on a dedicated channel; equals the slot's order
  /// statistic for multi-round plans, whose rounds permute node identity).
  cluster::Time actual_finish = 0.0;

  /// Inserted idle time this reservation wasted: start - usable_from.
  cluster::Time inserted_idle() const { return start - usable_from; }
};

/// Append-only log of committed reservations.
class ScheduleLog {
 public:
  void add(ScheduleEntry entry) { entries_.push_back(entry); }
  void clear() { entries_.clear(); }

  const std::vector<ScheduleEntry>& entries() const { return entries_; }
  std::size_t size() const { return entries_.size(); }

  /// Total inserted idle time across all reservations.
  cluster::Time total_inserted_idle() const;

  /// Writes CSV: task,node,usable_from,start,end,alpha,inserted_idle.
  void save_csv(std::ostream& out) const;

  /// Renders a coarse ASCII Gantt chart over [t0, t1): one row per node,
  /// task ids modulo 62 as marks, '.' for inserted idle, ' ' for free.
  std::string render_gantt(cluster::Time t0, cluster::Time t1, std::size_t nodes,
                           std::size_t width = 72) const;

 private:
  std::vector<ScheduleEntry> entries_;
};

}  // namespace rtdls::sim
