// Batched commits and early releases for the availability-index storms:
// picks a batch of distinct nodes and books it through the Cluster's batch
// mutators, mirroring each node's release time in the caller's array.
#pragma once

#include <algorithm>
#include <numeric>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "workload/rng.hpp"

namespace rtdls::test {

/// k distinct node ids: the k earliest-free nodes at `now` by (floored
/// time, id), a homogeneous plan's choice and contiguous in the index, or,
/// when `scattered`, a random k-subset in random order (a het plan's ids
/// are scattered over the index).
inline std::vector<cluster::NodeId> pick_batch(const std::vector<cluster::Time>& free_times,
                                               cluster::Time now, std::size_t k,
                                               bool scattered,
                                               workload::Xoshiro256StarStar& rng) {
  std::vector<cluster::NodeId> ids(free_times.size());
  std::iota(ids.begin(), ids.end(), 0);
  if (scattered) {
    for (std::size_t i = 0; i < k; ++i) {
      std::swap(ids[i], ids[i + rng() % (ids.size() - i)]);
    }
  } else {
    std::stable_sort(ids.begin(), ids.end(), [&](cluster::NodeId a, cluster::NodeId b) {
      return std::max(free_times[a], now) < std::max(free_times[b], now);
    });
  }
  ids.resize(k);
  return ids;
}

/// Books one batch through `c`: commits the nodes `ids` from their current
/// release (or from `now`, if later) - or, when `release`, releases them
/// early - all to one shared time or each to its own, and mirrors it in
/// `free_times`. Distinct early releases put every fourth node back at its
/// own release, which must leave its entry where it was.
inline void book_batch(cluster::Cluster& c, const std::vector<cluster::NodeId>& ids,
                       bool release, bool shared_time, cluster::Time now,
                       std::vector<cluster::Time>& free_times,
                       workload::Xoshiro256StarStar& rng, cluster::TaskId task) {
  const std::size_t k = ids.size();
  std::vector<cluster::Time> at(k);
  if (release) {
    cluster::Time earliest = free_times[ids[0]];
    for (const cluster::NodeId id : ids) earliest = std::min(earliest, free_times[id]);
    const cluster::Time shared = earliest * (0.5 + 0.5 * rng.next_double());
    for (std::size_t i = 0; i < k; ++i) {
      const cluster::Time until = free_times[ids[i]];
      at[i] = shared_time  ? shared
              : i % 4 == 3 ? until
                           : until * (0.5 + 0.5 * rng.next_double());
    }
    c.release_early_batch(ids, at);
  } else {
    std::vector<cluster::Time> start(k);
    cluster::Time latest = now;
    for (std::size_t i = 0; i < k; ++i) {
      start[i] = std::max(free_times[ids[i]], now) + rng.next_double() * 50.0;
      latest = std::max(latest, start[i]);
    }
    const cluster::Time shared = latest + 1.0 + rng.next_double() * 500.0;
    for (std::size_t i = 0; i < k; ++i) {
      at[i] = shared_time ? shared : start[i] + 1.0 + rng.next_double() * 500.0;
    }
    c.commit_batch(ids, task, start, start, at);
  }
  for (std::size_t i = 0; i < k; ++i) free_times[ids[i]] = at[i];
}

}  // namespace rtdls::test
