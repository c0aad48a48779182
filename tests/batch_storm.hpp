// Helpers for the availability-index storms: batched commits and early
// releases (a batch of distinct nodes booked through the Cluster's batch
// mutators, each node's release time mirrored in the caller's array), the
// four ways a storm moves `now` - and with it the floored partition's
// watermark - and the check of the index's row view against the reference
// order.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
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

/// The next `now` of a storm, by `move` % 4: forward by up to `step`
/// (floored, so it may also stay), kept, landed exactly on a random node's
/// release time (the partition's inclusive edge), or moved back - which
/// makes the index put the floored nodes released after it back in its
/// timeline instead of popping entries into the partition.
inline cluster::Time next_now(cluster::Time now, const std::vector<cluster::Time>& free_times,
                              std::size_t move, double step,
                              workload::Xoshiro256StarStar& rng) {
  switch (move % 4) {
    case 0:
      return now + std::floor(rng.next_double() * step);
    case 1:
      return now;
    case 2:
      return free_times[rng() % free_times.size()];
    default:
      return std::floor(now * rng.next_double());
  }
}

/// Asserts the index's view at `now` - opened with ids and without -
/// against the reference order, a sort of (max(free_at, now), id), filled
/// in turn to lengths 0, 1, F, F + 1 and, when `whole`, N (F being the
/// nodes free by `now`): each fill holds exactly that many positions and
/// matches the reference prefix. The prefix up to F + 1 costs O(N) (the
/// floored ids ascend, then the least (free_at, id) past `now`); only the
/// whole row needs the sort. Then, with the watermark at `now`, checks
/// frees_before(t) against min(free_times) < t at `now`, one ulp either side
/// of it and at the least release, and that it holds at a NaN.
inline void expect_view_matches(const cluster::AvailabilityIndex& index,
                                const std::vector<cluster::Time>& free_times,
                                cluster::Time now, bool whole) {
  const std::size_t n = free_times.size();
  std::vector<cluster::NodeId> ids;
  std::vector<cluster::NodeId> rest;
  for (cluster::NodeId id = 0; id < n; ++id) {
    (free_times[id] <= now ? ids : rest).push_back(id);
  }
  const std::size_t floored = ids.size();
  const auto before = [&](cluster::NodeId a, cluster::NodeId b) {
    return free_times[a] < free_times[b] || (free_times[a] == free_times[b] && a < b);
  };
  if (whole) {
    std::sort(rest.begin(), rest.end(), before);
    ids.insert(ids.end(), rest.begin(), rest.end());
  } else if (!rest.empty()) {
    ids.push_back(*std::min_element(rest.begin(), rest.end(), before));
  }
  std::vector<std::size_t> lengths{0, 1, floored, floored + 1, whole ? n : 0};
  std::sort(lengths.begin(), lengths.end());
  lengths.erase(std::unique(lengths.begin(), lengths.end()), lengths.end());
  for (const bool with_ids : {false, true}) {
    cluster::AvailabilityView view;
    view.open(index, now, with_ids);
    ASSERT_EQ(view.size(), n);
    ASSERT_EQ(view.with_ids(), with_ids);
    for (const std::size_t length : lengths) {
      if (length > ids.size()) break;
      view.fill(length);
      ASSERT_EQ(view.times().size(), length) << "now=" << now;
      ASSERT_EQ(view.ids().size(), with_ids ? length : 0) << "now=" << now;
      for (std::size_t i = 0; i < length; ++i) {
        const cluster::NodeId id = ids[i];
        ASSERT_EQ(view.times()[i], std::max(free_times[id], now))
            << "position " << i << " of " << length << ", F=" << floored << ", now=" << now;
        if (with_ids) {
          ASSERT_EQ(view.ids()[i], id)
              << "position " << i << " of " << length << ", F=" << floored << ", now=" << now;
        }
      }
    }
    // A whole view settles into a dense row; a partly filled one empties.
    const bool complete = view.times().size() == n;
    ASSERT_EQ(view.settle(), complete);
    ASSERT_EQ(view.times().size(), complete ? n : 0);
  }
  if (n == 0) return;
  const cluster::Time least = *std::min_element(free_times.begin(), free_times.end());
  constexpr cluster::Time kInf = std::numeric_limits<cluster::Time>::infinity();
  for (const cluster::Time t :
       {now, std::nextafter(now, -kInf), std::nextafter(now, kInf), least}) {
    ASSERT_EQ(index.frees_before(t), least < t) << "t=" << t << ", now=" << now;
  }
  ASSERT_TRUE(index.frees_before(std::numeric_limits<cluster::Time>::quiet_NaN()));
}

}  // namespace rtdls::test
