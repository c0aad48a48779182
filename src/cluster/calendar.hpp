// Interval-based reservation calendar.
//
// The paper's Figure-2 framework only needs each node's *release time*
// because its rules reserve contiguous suffixes [start, release). The
// backfilling literature it cites ([21, 24, 29]) instead keeps per-node
// busy-interval sets so later jobs can slide into gaps in front of existing
// reservations - exactly the Inserted Idle Times the paper's DLT rule
// consumes. This calendar is the substrate for the OPR-MN-BF comparator
// ("prior work + conservative backfilling"), letting the benches answer
// whether backfilling alone recovers what IIT-utilization gains.
#pragma once

#include <vector>

#include "cluster/types.hpp"

namespace rtdls::cluster {

/// A half-open busy interval [start, end).
struct Interval {
  Time start = 0.0;
  Time end = 0.0;
};

/// Per-node disjoint busy-interval sets with gap queries.
class NodeCalendar {
 public:
  explicit NodeCalendar(std::size_t nodes);

  std::size_t size() const { return busy_.size(); }

  /// Reserves [start, end) on `id`. Throws std::logic_error on overlap with
  /// an existing reservation (callers must plan against gaps first).
  void reserve(NodeId id, Time start, Time end);

  /// True if [start, end) does not intersect any reservation on `id`.
  bool is_free(NodeId id, Time start, Time end) const;

  /// The node's busy intervals (sorted, disjoint) - for tests and metrics.
  const std::vector<Interval>& busy(NodeId id) const { return busy_.at(id); }

  /// Total reserved time on `id`.
  Time busy_time(NodeId id) const;

  /// Drops every reservation, keeping per-node storage (run-to-run reuse).
  void clear() {
    for (auto& intervals : busy_) intervals.clear();
  }

  /// Candidate start times for scan-based planning: `from` plus every
  /// reservation edge >= from, deduplicated and sorted. Any optimal
  /// "earliest k simultaneous nodes" answer lies on one of these.
  std::vector<Time> candidate_times(Time from) const;

 private:
  std::vector<std::vector<Interval>> busy_;  // per node, sorted by start
};

}  // namespace rtdls::cluster
