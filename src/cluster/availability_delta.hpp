// Sparse edit a committed plan makes to a sorted availability row.
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
// Heterogeneous rows carry a node-id column in strict (time, id) order; the
// delta mirrors it with id payloads aligned with the sorted releases.
// Per-position cps never rides along: speeds are constants derived from the
// id column (same reasoning as AvailabilityIndex::Entry).
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

namespace detail {

/// In-place forward merge of the sorted run `incoming` (k entries) into
/// state[k..n): safe because the write position i + (j - k) never passes the
/// suffix read position j.
inline void merge_releases(std::vector<Time>& state, const Time* incoming,
                           std::size_t k) {
  const std::size_t n = state.size();
  std::size_t i = 0;
  std::size_t j = k;
  std::size_t pos = 0;
  while (i < k && j < n) {
    state[pos++] = state[j] < incoming[i] ? state[j++] : incoming[i++];
  }
  while (i < k) state[pos++] = incoming[i++];
}

/// Heterogeneous merge core: strict (time, id) pair order across both runs.
/// The incoming run is read through accessors so span-pair (two flat
/// columns) and pair-vector callers share the one merge - the tie-break
/// must stay in a single place for replay to remain bit-identical.
template <typename TimeAt, typename IdAt>
inline void merge_releases_het_core(std::vector<Time>& state, std::vector<NodeId>& ids,
                                    TimeAt in_time, IdAt in_id, std::size_t k) {
  const std::size_t n = state.size();
  std::size_t i = 0;
  std::size_t j = k;
  std::size_t pos = 0;
  while (i < k && j < n) {
    const bool take_suffix =
        state[j] < in_time(i) || (state[j] == in_time(i) && ids[j] < in_id(i));
    if (take_suffix) {
      state[pos] = state[j];
      ids[pos] = ids[j];
      ++j;
    } else {
      state[pos] = in_time(i);
      ids[pos] = in_id(i);
      ++i;
    }
    ++pos;
  }
  while (i < k) {
    state[pos] = in_time(i);
    ids[pos] = in_id(i);
    ++i;
    ++pos;
  }
}

inline void merge_releases_het(std::vector<Time>& state, std::vector<NodeId>& ids,
                               const Time* in_times, const NodeId* in_ids,
                               std::size_t k) {
  merge_releases_het_core(
      state, ids, [in_times](std::size_t i) { return in_times[i]; },
      [in_ids](std::size_t i) { return in_ids[i]; }, k);
}

inline void merge_releases_het(std::vector<Time>& state, std::vector<NodeId>& ids,
                               const std::pair<Time, NodeId>* in, std::size_t k) {
  merge_releases_het_core(
      state, ids, [in](std::size_t i) { return in[i].first; },
      [in](std::size_t i) { return in[i].second; }, k);
}

}  // namespace detail

/// Applies `releases` (the plan's node_release run, nondecreasing for every
/// rule; defensively re-sorted otherwise) to the sorted row `state`: the
/// first releases.size() entries are consumed and the releases merged into
/// the remainder - an in-place O(N) forward merge.
///
/// Contract: on return `scratch` holds exactly the k releases in sorted
/// order - the delta that apply_delta replays. Callers that keep deltas in
/// flat storage (the admission session) append it directly instead of
/// paying a per-task allocation.
RTDLS_HOT inline void apply_releases(std::vector<Time>& state, const std::vector<Time>& releases,
                           std::vector<Time>& scratch) {
  const std::size_t k = releases.size();
  if (k > state.size()) {
    throw std::invalid_argument("apply_releases: more releases than slots");
  }
  scratch.assign(releases.begin(), releases.end());
  if (!std::is_sorted(scratch.begin(), scratch.end())) {
    std::sort(scratch.begin(), scratch.end());  // defensive; no rule hits this
  }
  detail::merge_releases(state, scratch.data(), k);
}

/// Heterogeneous variant: `state`/`ids` are a (time, id) row in strict
/// (time, id) order; `releases`/`release_ids` are slot-aligned (NOT
/// necessarily sorted - het multi-round releases keep slot identity) and
/// re-enter in pair order. Consumes the first releases.size() positions.
/// Same scratch contract: on return it holds the k (time, id) pairs sorted.
RTDLS_HOT inline void apply_releases_het(std::vector<Time>& state, std::vector<NodeId>& ids,
                               const std::vector<Time>& releases,
                               const std::vector<NodeId>& release_ids,
                               std::vector<std::pair<Time, NodeId>>& scratch) {
  const std::size_t k = releases.size();
  if (k > state.size() || release_ids.size() != k) {
    throw std::invalid_argument("apply_releases_het: bad release columns");
  }
  scratch.resize(k);
  for (std::size_t i = 0; i < k; ++i) scratch[i] = {releases[i], release_ids[i]};
  std::sort(scratch.begin(), scratch.end());
  detail::merge_releases_het(state, ids, scratch.data(), k);
}

/// Replays one delta from flat storage (the admission session stores one
/// delta per planned task and must not allocate per task): `new_times` /
/// `new_ids` point at the k sorted entries the apply_releases* scratch held.
/// Consumes the first k entries of the row and merges the new entries back
/// in - bit-identical to the apply_releases call that produced them.
RTDLS_HOT inline void apply_delta(std::vector<Time>& state, const Time* new_times,
                        std::size_t k) {
  if (k > state.size()) {
    throw std::invalid_argument("apply_delta: delta wider than the row");
  }
  detail::merge_releases(state, new_times, k);
}

RTDLS_HOT inline void apply_delta_het(std::vector<Time>& state, std::vector<NodeId>& ids,
                            const Time* new_times, const NodeId* new_ids,
                            std::size_t k) {
  if (k > state.size()) {
    throw std::invalid_argument("apply_delta_het: delta wider than the row");
  }
  detail::merge_releases_het(state, ids, new_times, new_ids, k);
}

}  // namespace rtdls::cluster
