#include "cluster/calendar.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/fp.hpp"

namespace rtdls::cluster {

NodeCalendar::NodeCalendar(std::size_t nodes) : busy_(nodes) {
  if (nodes == 0) throw std::invalid_argument("NodeCalendar: need >= 1 node");
}

void NodeCalendar::reserve(NodeId id, Time start, Time end) {
  // `end < start` alone is false for NaN, and a NaN bound defeats both
  // overlap checks below for every later reservation on the node.
  if (!std::isfinite(start) || !std::isfinite(end) || end < start) {
    throw std::invalid_argument("NodeCalendar::reserve: bounds must be finite with start <= end");
  }
  auto& intervals = busy_.at(id);
  const auto insert_at = std::upper_bound(
      intervals.begin(), intervals.end(), start,
      [](Time t, const Interval& interval) { return t < interval.start; });
  // Check the neighbours for overlap.
  if (insert_at != intervals.begin()) {
    const Interval& before = *(insert_at - 1);
    if (fp::after(before.end, start)) {
      throw std::logic_error("NodeCalendar::reserve: overlaps earlier reservation");
    }
  }
  if (insert_at != intervals.end() && fp::before(insert_at->start, end)) {
    throw std::logic_error("NodeCalendar::reserve: overlaps later reservation");
  }
  intervals.insert(insert_at, Interval{start, end});
}

bool NodeCalendar::is_free(NodeId id, Time start, Time end) const {
  const auto& intervals = busy_.at(id);
  for (const Interval& interval : intervals) {
    if (fp::at_or_after(interval.start, end)) break;  // sorted: nothing later overlaps
    if (fp::after(interval.end, start)) return false;
  }
  return true;
}

Time NodeCalendar::busy_time(NodeId id) const {
  Time total = 0.0;
  for (const Interval& interval : busy_.at(id)) total += interval.end - interval.start;
  return total;
}

std::vector<Time> NodeCalendar::candidate_times(Time from) const {
  std::vector<Time> times{from};
  for (const auto& intervals : busy_) {
    for (const Interval& interval : intervals) {
      if (interval.start > from) times.push_back(interval.start);
      if (interval.end > from) times.push_back(interval.end);
    }
  }
  std::sort(times.begin(), times.end());
  // Anchor-based dedupe: |a-b| <= tol is not transitive, so handing it to
  // std::unique is unspecified - depending on which elements the
  // implementation compares, a chain of near-equal edges (each within
  // tolerance of its neighbour) could collapse into one candidate
  // arbitrarily far from the dropped edges. Comparing against the last
  // KEPT time instead guarantees every dropped edge lies within
  // fp::kTimeTolerance of a surviving anchor.
  std::size_t kept = 0;
  for (std::size_t i = 0; i < times.size(); ++i) {
    if (kept == 0 || fp::after(times[i], times[kept - 1])) times[kept++] = times[i];
  }
  times.resize(kept);
  return times;
}

}  // namespace rtdls::cluster
