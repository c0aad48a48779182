// Sorted availability rows and the sparse edits committed plans make to them.
//
// Every release-time rule consumes the k earliest entries of the sorted
// availability state and re-inserts its k node releases wherever the sort
// order puts them. A plan only touches k << N entries, so the row-to-row
// difference is fully described by the k re-inserted values, sorted: the
// delta. A delta chain replayed onto a dense base row rebuilds any later row
// bit-identically (the replay runs the exact same forward merge the
// admission test ran when it first applied the plan), which is what lets
// the admission session keep O(k) deltas in flat columns plus sparse dense
// checkpoints instead of one row per task.
//
// A row carries a node-id column exactly when nodes are not interchangeable
// (a heterogeneous speed profile): then rows are in strict (time, id) order
// and deltas carry the ids of their releases. An empty id column means
// interchangeable nodes, so one row type, one merge and one delta column
// type serve both models. Per-position cps never rides along: speeds are
// constants derived from the id column (same reasoning as
// AvailabilityIndex::Entry).
//
// Everything here is header-inline: the apply/replay merges are the
// admission loop's innermost O(N) operation and must inline into their
// call sites (they were measurably slower as cross-TU calls at small N).
#pragma once

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <utility>
#include <vector>

#include "cluster/types.hpp"
#include "util/annotations.hpp"

namespace rtdls::cluster {

/// Availability state used by planning: release times of all N nodes,
/// floored at `now` and sorted ascending, so `times[k-1]` is the instant at
/// which k nodes are simultaneously available (and also the available time
/// r_k of the k-th earliest node for IIT-utilizing partitioning). `ids[i]`
/// owns `times[i]`, in strict (time, id) order; `ids` is empty when nodes
/// are interchangeable.
struct AvailabilityRow {
  std::vector<Time> times;
  std::vector<NodeId> ids;
};

namespace detail {

/// The one merge core: consumes the first k entries of `row` and merges the
/// sorted run `in_times` (with `in_ids` when the row has ids) into the
/// remainder - an in-place forward merge, safe because the write position
/// pos never passes the suffix read position j. Rows without ids compare
/// times only and ties take the incoming entry; rows with ids use strict
/// (time, id) order.
inline void merge_run(AvailabilityRow& row, const Time* in_times, const NodeId* in_ids,
                      std::size_t k) {
  std::vector<Time>& times = row.times;
  const std::size_t n = times.size();
  std::size_t i = 0;
  std::size_t j = k;
  std::size_t pos = 0;
  if (row.ids.empty()) {
    while (i < k && j < n) {
      times[pos++] = times[j] < in_times[i] ? times[j++] : in_times[i++];
    }
    while (i < k) times[pos++] = in_times[i++];
    return;
  }
  std::vector<NodeId>& ids = row.ids;
  while (i < k && j < n) {
    if (times[j] < in_times[i] || (times[j] == in_times[i] && ids[j] < in_ids[i])) {
      times[pos] = times[j];
      ids[pos] = ids[j];
      ++j;
    } else {
      times[pos] = in_times[i];
      ids[pos] = in_ids[i];
      ++i;
    }
    ++pos;
  }
  for (; i < k; ++i, ++pos) {
    times[pos] = in_times[i];
    ids[pos] = in_ids[i];
  }
}

/// Writes the k entries (times[i], ids[i]) into `out` in strict (time, id)
/// order. Entries already in that order (a tied DLT prefix's releases
/// always are) are copied after an O(k) check, without the sort.
/// Otherwise out.ids first holds the sorted slot permutation; each position
/// then reads its slot before overwriting it with that slot's id, so no
/// buffer beyond `out` is needed.
inline void sort_by_time_id(const Time* times, const NodeId* ids, std::size_t k,
                            AvailabilityRow& out) {
  const auto before = [times, ids](std::size_t a, std::size_t b) {
    return times[a] < times[b] || (times[a] == times[b] && ids[a] < ids[b]);
  };
  std::size_t ordered = 1;  // [0, ordered) is in strict order
  while (ordered < k && before(ordered - 1, ordered)) ++ordered;
  if (ordered >= k) {
    out.times.assign(times, times + k);
    out.ids.assign(ids, ids + k);
    return;
  }
  out.times.resize(k);
  out.ids.resize(k);
  for (std::size_t i = 0; i < k; ++i) out.ids[i] = static_cast<NodeId>(i);
  std::sort(out.ids.begin(), out.ids.end(), before);
  for (std::size_t i = 0; i < k; ++i) {
    const NodeId slot = out.ids[i];
    out.times[i] = times[slot];
    out.ids[i] = ids[slot];
  }
}

}  // namespace detail

/// Floors every entry of `row` at `now` and puts it back in row order (the
/// stateless test's input need not arrive sorted). A row with ids is sorted
/// into `scratch` and swapped in.
inline void floor_and_sort(AvailabilityRow& row, Time now, AvailabilityRow& scratch) {
  for (Time& t : row.times) t = std::max(t, now);
  if (row.ids.empty()) {
    std::sort(row.times.begin(), row.times.end());
    return;
  }
  if (row.ids.size() != row.times.size()) {
    throw std::invalid_argument("floor_and_sort: id column size mismatch");
  }
  detail::sort_by_time_id(row.times.data(), row.ids.data(), row.times.size(), scratch);
  std::swap(row, scratch);
}

/// Writes a plan's k releases into `run` in row order - by time, or by
/// (time, id) when `with_ids` - the delta a merge consumes (merge_run via
/// apply_releases or DeltaColumns::replay). `release_ids` are slot-aligned
/// with `releases` and read only when `with_ids`; releases need not arrive
/// sorted (het multi-round releases keep slot identity; every homogeneous
/// rule emits them nondecreasing).
inline void sort_releases(const std::vector<Time>& releases,
                          const std::vector<NodeId>& release_ids, bool with_ids,
                          AvailabilityRow& run) {
  const std::size_t k = releases.size();
  if (with_ids) {
    if (release_ids.size() != k) {
      throw std::invalid_argument("sort_releases: id column size mismatch");
    }
    detail::sort_by_time_id(releases.data(), release_ids.data(), k, run);
    return;
  }
  run.times.assign(releases.begin(), releases.end());
  run.ids.clear();
  if (!std::is_sorted(run.times.begin(), run.times.end())) {
    // Defensive: every homogeneous rule emits nondecreasing releases.
    std::sort(run.times.begin(), run.times.end());
  }
}

/// Applies a plan's releases to `row`: the first releases.size() entries
/// are consumed and the releases, in row order (sort_releases), merged into
/// the remainder - an in-place O(N) forward merge. On return `scratch`
/// holds exactly the k releases in row order: the delta
/// DeltaColumns::replay replays.
RTDLS_HOT inline void apply_releases(AvailabilityRow& row,
                                     const std::vector<Time>& releases,
                                     const std::vector<NodeId>& release_ids,
                                     AvailabilityRow& scratch) {
  const std::size_t k = releases.size();
  if (k > row.times.size()) {
    throw std::invalid_argument("apply_releases: bad release columns");
  }
  sort_releases(releases, release_ids, !row.ids.empty(), scratch);
  detail::merge_run(row, scratch.times.data(), scratch.ids.data(), k);
}

/// The admission session's delta stack in flat columns (flat so the steady
/// state allocates nothing per planned task): delta r is the sorted run at
/// [start(r), end[r]) of `times`, and of `ids` when the rows carry ids;
/// otherwise `ids` stays empty.
struct DeltaColumns {
  std::vector<std::size_t> end;  ///< per delta: end offset into the columns
  std::vector<Time> times;
  std::vector<NodeId> ids;

  std::size_t start(std::size_t r) const { return r == 0 ? 0 : end[r - 1]; }

  /// Appends one delta: a run sort_releases wrote (or apply_releases left
  /// in its scratch).
  void push(const AvailabilityRow& run) {
    times.insert(times.end(), run.times.begin(), run.times.end());
    ids.insert(ids.end(), run.ids.begin(), run.ids.end());
    end.push_back(times.size());
  }

  /// Replays delta r onto `row`: consumes its first k entries and merges the
  /// delta back in - bit-identical to applying the releases it was sorted
  /// from.
  RTDLS_HOT void replay(std::size_t r, AvailabilityRow& row) const {
    const std::size_t begin = start(r);
    const std::size_t k = end[r] - begin;
    if (k > row.times.size()) {
      throw std::invalid_argument("DeltaColumns::replay: delta wider than the row");
    }
    const NodeId* run_ids = ids.empty() ? nullptr : ids.data() + begin;
    detail::merge_run(row, times.data() + begin, run_ids, k);
  }

  /// Keeps deltas [0, r).
  void truncate(std::size_t r) {
    const std::size_t cut = start(r);
    end.resize(r);
    times.resize(cut);
    if (!ids.empty()) ids.resize(cut);  // an empty id column must not grow
  }

  /// Drops deltas [0, r) and rebases the remaining offsets.
  void drop_front(std::size_t r) {
    const std::size_t cut = start(r);
    end.erase(end.begin(), end.begin() + static_cast<std::ptrdiff_t>(r));
    for (std::size_t& e : end) e -= cut;
    const auto flat_cut = static_cast<std::ptrdiff_t>(cut);
    times.erase(times.begin(), times.begin() + flat_cut);
    if (!ids.empty()) ids.erase(ids.begin(), ids.begin() + flat_cut);
  }

  /// Appends every delta of `other` after the last one here.
  void append(const DeltaColumns& other) {
    const std::size_t base = times.size();
    for (const std::size_t e : other.end) end.push_back(base + e);
    times.insert(times.end(), other.times.begin(), other.times.end());
    ids.insert(ids.end(), other.ids.begin(), other.ids.end());
  }
};

}  // namespace rtdls::cluster
