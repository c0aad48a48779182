// Tests for the bucketed AvailabilityIndex: N=10^4 randomized storms over
// the index mutations (commit / release_early / reset, single and batched)
// and over `now` (forward, kept, landed on a release time, moved back),
// with every query - the row view and its floored partition included -
// checked against a sort of the authoritative release times, the
// adversarial monotone-arrival pattern that would make one sorted vector
// shift all N entries per update (with early releases that cross whole
// buckets downwards, and plan-sized batches landing in one bucket), desync
// detection, stale-view detection, the depth a single update reports, and
// the fold that follows a batch which kept every touched bucket's size.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>
#include <vector>

#include "batch_storm.hpp"
#include "cluster/availability_index.hpp"
#include "cluster/cluster.hpp"
#include "workload/rng.hpp"

namespace rtdls {
namespace {

using cluster::AvailabilityIndex;
using cluster::NodeId;
using cluster::Time;

/// The reference order: node ids stably sorted by max(free_at, now), so
/// ties (every node floored at `now`, and equal release times past it) keep
/// id order.
std::vector<NodeId> reference_order(const std::vector<Time>& free_times, Time now) {
  std::vector<NodeId> ids(free_times.size());
  std::iota(ids.begin(), ids.end(), 0);
  std::stable_sort(ids.begin(), ids.end(), [&](NodeId a, NodeId b) {
    return std::max(free_times[a], now) < std::max(free_times[b], now);
  });
  return ids;
}

/// Asserts the index mirrors `free_times` and answers every query as the
/// reference sort does. `full` toggles the O(N log N) reference sort behind
/// the snapshot compares and the whole-row view; the invariants and the
/// view up to one past its floored prefix are checked every time.
void expect_matches_reference(const AvailabilityIndex& index,
                              const std::vector<Time>& free_times, Time now, bool full) {
  ASSERT_TRUE(index.consistent_with(free_times));
  ASSERT_EQ(index.size(), free_times.size());
  // The view, and through it the floored partition the watermark now
  // stands at (consistent_with checks its bits and count once more).
  test::expect_view_matches(index, free_times, now, full);
  ASSERT_TRUE(index.consistent_with(free_times));
  if (!full) return;

  const std::size_t n = free_times.size();
  const std::vector<NodeId> order = reference_order(free_times, now);
  std::vector<Time> expected_times;
  for (const NodeId id : order) expected_times.push_back(std::max(free_times[id], now));
  std::vector<Time> times;
  index.availability_into(now, times);
  ASSERT_EQ(times, expected_times) << "availability_into at now=" << now;
  std::vector<NodeId> ids;
  index.availability_with_ids_into(now, times, ids);
  ASSERT_EQ(times, expected_times) << "availability_with_ids_into times at now=" << now;
  ASSERT_EQ(ids, order) << "availability_with_ids_into ids at now=" << now;
  for (std::size_t want : {std::size_t{1}, n / 7, n / 2, n}) {
    if (want == 0) continue;
    index.earliest_free_nodes_into(now, want, ids);
    const std::vector<NodeId> expected(order.begin(),
                                       order.begin() + static_cast<std::ptrdiff_t>(want));
    ASSERT_EQ(ids, expected) << "earliest_free_nodes_into n=" << want << " now=" << now;
  }
}

/// Moves nodes `ids` to `to` in one update_batch and mirrors it in
/// `free_times`; returns the batch's depth.
std::size_t batch_update(AvailabilityIndex& index, std::vector<Time>& free_times,
                         const std::vector<NodeId>& ids, const std::vector<Time>& to) {
  std::vector<Time> from(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) from[i] = free_times[ids[i]];
  const std::size_t depth = index.update_batch(ids, from, to);
  for (std::size_t i = 0; i < ids.size(); ++i) free_times[ids[i]] = to[i];
  return depth;
}

/// Moves nodes [first, last) to base, base + 1, ... in one update_batch.
void spread_nodes(AvailabilityIndex& index, std::vector<Time>& free_times, NodeId first,
                  NodeId last, Time base) {
  std::vector<NodeId> ids;
  std::vector<Time> to;
  for (NodeId id = first; id < last; ++id) {
    ids.push_back(id);
    to.push_back(base + static_cast<Time>(id - first));
  }
  batch_update(index, free_times, ids, to);
}

TEST(AvailabilityIndexBucket, RandomizedDifferentialAtTenThousandNodes) {
  // Randomized update storm at N=10^4 (commits moving entries up, early
  // releases moving them down, plus a reset), with the full query surface
  // compared against the reference along the way. Times come off a coarse
  // grid so duplicate free_at values (the node-id tie-break path) occur
  // constantly. Every 60th step also moves a batch of k nodes in one
  // update_batch, k cycling from 1 to 2000: up or down, to one shared time
  // or to distinct ones, the earliest-free nodes or a scattered subset.
  constexpr std::size_t kNodes = 10000;
  constexpr std::size_t kBatchSizes[] = {1, 2, 9, 129, 257, 451, 2000};
  AvailabilityIndex index;
  index.reset(kNodes);
  std::vector<Time> free_times(kNodes, 0.0);
  workload::Xoshiro256StarStar rng(20260809);
  workload::Xoshiro256StarStar batch_rng(9080626);
  Time now = 0.0;
  std::size_t now_moves = 0;
  std::size_t batches = 0;
  for (int step = 0; step < 3000; ++step) {
    if (step % 60 == 59) {
      const std::size_t k = kBatchSizes[batches % std::size(kBatchSizes)];
      const bool down = batches % 3 == 2;
      const bool shared_time = batches % 2 == 0;
      const bool scattered = (batches / 2) % 2 == 1;
      ++batches;
      const std::vector<NodeId> ids =
          test::pick_batch(free_times, now, k, scattered, batch_rng);
      Time latest = 0.0;
      for (const NodeId id : ids) latest = std::max(latest, free_times[id]);
      const auto step_up = [&] {
        return 1.0 + std::floor(batch_rng.next_double() * 40.0);
      };
      const auto scale_down = [&] { return 0.3 + 0.6 * batch_rng.next_double(); };
      const Time shared =
          down ? std::max(now, std::floor(latest * 0.5)) : latest + step_up();
      std::vector<Time> to(k);
      for (std::size_t i = 0; i < k; ++i) {
        const Time from = free_times[ids[i]];
        const Time own =
            down ? std::max(now, std::floor(from * scale_down())) : from + step_up();
        to[i] = shared_time ? shared : own;
      }
      batch_update(index, free_times, ids, to);
      expect_matches_reference(index, free_times, now, /*full=*/true);
    }
    const auto node = static_cast<NodeId>(rng() % kNodes);
    const double action = rng.next_double();
    const Time from = free_times[node];
    if (action < 0.65) {
      // Commit: release moves forward, onto a coarse grid for ties.
      const Time to = from + 1.0 + std::floor(rng.next_double() * 40.0);
      index.update(node, from, to);
      free_times[node] = to;
    } else if (action < 0.85) {
      // Early release: move backwards (but not before `now`).
      const Time to = std::max(now, std::floor(from * (0.3 + 0.6 * rng.next_double())));
      index.update(node, from, to);
      free_times[node] = to;
    } else if (action < 0.95) {
      now = test::next_now(now, free_times, now_moves++, 30.0, rng);
    } else {
      // No-op reposition: to == from is compacted out and merged back; the
      // reference check below confirms the index is unchanged.
      index.update(node, from, from);
    }
    expect_matches_reference(index, free_times, now, /*full=*/step % 16 == 0);
  }
  expect_matches_reference(index, free_times, now, /*full=*/true);

  // Mid-run reset: back to the all-free state.
  index.reset(kNodes);
  std::fill(free_times.begin(), free_times.end(), 0.0);
  expect_matches_reference(index, free_times, 0.0, /*full=*/true);
  // And the index keeps working after the reset.
  index.update(17, 0.0, 99.0);
  free_times[17] = 99.0;
  expect_matches_reference(index, free_times, 0.0, /*full=*/true);
}

TEST(AvailabilityIndexBucket, AdversarialMonotoneArrivalPattern) {
  // Every update takes the earliest-free node (rank 0) and releases it past
  // the current maximum - exactly what a saturated monotone-arrival replay
  // does. One sorted vector would shift all N - 1 other entries each time;
  // the index must stay bounded by its bucket geometry while answering
  // every query exactly.
  constexpr std::size_t kNodes = 10000;
  AvailabilityIndex index;
  index.reset(kNodes);
  std::vector<Time> free_times(kNodes, 0.0);
  Time horizon = 0.0;
  std::size_t max_depth = 0;
  std::size_t deep_releases = 0;
  workload::Xoshiro256StarStar batch_rng(451);
  for (int step = 0; step < 4000; ++step) {
    if (step % 250 == 249) {
      // A large DLT plan: the 451 earliest-free nodes all booked past the
      // current maximum, at one shared release (every entry lands in the
      // last bucket, which must split into many pieces, not two) or, every
      // other time, at distinct ones.
      const std::vector<NodeId> ids =
          test::pick_batch(free_times, horizon, 451, /*scattered=*/false, batch_rng);
      std::vector<Time> to(ids.size(), horizon + static_cast<Time>(kNodes) + 0.5);
      if (step % 500 == 499) {
        for (std::size_t i = 0; i < to.size(); ++i) to[i] += static_cast<Time>(i % 7);
      }
      batch_update(index, free_times, ids, to);
      expect_matches_reference(index, free_times, horizon, /*full=*/true);
    }
    // argmin by (free_at, node): the entry at rank 0.
    NodeId victim = 0;
    for (NodeId id = 1; id < kNodes; ++id) {
      if (free_times[id] < free_times[victim]) victim = id;
    }
    const Time from = free_times[victim];
    horizon += 1.0;
    const Time to = horizon + static_cast<Time>(kNodes);
    max_depth = std::max(max_depth, index.update(victim, from, to));
    free_times[victim] = to;
    if (step % 97 == 96) {
      // Now and then the node just committed, the last entry of the last
      // bucket, finishes early at `now`. Once at least a full bucket's worth
      // (128) of other entries lie above `now`, that down-move passes the
      // previous bucket's last entry, so it must leave its bucket.
      const auto above_now = static_cast<std::size_t>(std::count_if(
          free_times.begin(), free_times.end(), [&](Time t) { return t > horizon; }));
      if (above_now - 1 >= 128) ++deep_releases;
      max_depth = std::max(max_depth, index.update(victim, to, horizon));
      free_times[victim] = horizon;
    }
    expect_matches_reference(index, free_times, horizon, /*full=*/step % 64 == 0);
  }
  EXPECT_GE(deep_releases, 30u);
  // A batch of one shifts at most the 127 entries after its old position
  // (compaction) plus the 128 behind its new one (merge or split): two
  // bucket-local moves instead of ten thousand entries.
  EXPECT_LE(max_depth, 256u);
  expect_matches_reference(index, free_times, horizon, /*full=*/true);
}

TEST(AvailabilityIndexBucket, ClusterDifferentialCommitReleaseReset) {
  // A storm through the Cluster layer (commit / release_early / reset, and
  // their batches) - the wiring the simulator and daemon use - on a
  // 512-node, eight-bucket index, compared after every step with the
  // reference sort of the nodes' own release times. Every eighth step books
  // a batch of k nodes, k cycling from 1 to the whole cluster.
  constexpr std::size_t kNodes = 512;
  constexpr std::size_t kBatchSizes[] = {1, 3, 17, 128, 129, 257, 400, 512};
  cluster::Cluster c({.node_count = kNodes, .cms = 1.0, .cps = 100.0});

  workload::Xoshiro256StarStar rng(777);
  workload::Xoshiro256StarStar batch_rng(778);
  std::vector<Time> committed_until(kNodes, 0.0);
  std::vector<Time> free_times(kNodes);
  Time now = 0.0;
  std::size_t now_moves = 0;
  std::size_t batches = 0;
  for (int step = 0; step < 600; ++step) {
    const auto node = static_cast<NodeId>(rng() % kNodes);
    const double action = rng.next_double();
    if (step % 8 == 7) {
      const std::size_t k = kBatchSizes[batches % std::size(kBatchSizes)];
      const bool release = batches % 3 == 2;
      const bool shared_time = batches % 2 == 0;
      const bool scattered = (batches / 2) % 2 == 1;
      ++batches;
      test::book_batch(c, test::pick_batch(committed_until, now, k, scattered, batch_rng),
                       release, shared_time, now, committed_until, batch_rng,
                       static_cast<cluster::TaskId>(step));
    } else if (action < 0.70) {
      const Time start = std::max(committed_until[node], now) + rng.next_double() * 50.0;
      const Time end = start + 1.0 + rng.next_double() * 500.0;
      c.commit(node, static_cast<cluster::TaskId>(step), start, start, end);
      committed_until[node] = end;
    } else if (action < 0.85) {
      const Time at = committed_until[node] * (0.5 + 0.5 * rng.next_double());
      c.release_early_batch({&node, 1}, {&at, 1});
      committed_until[node] = at;
    } else if (action < 0.97) {
      for (NodeId id = 0; id < kNodes; ++id) free_times[id] = c.node(id).free_at();
      now = test::next_now(now, free_times, now_moves++, 100.0, rng);
    } else {
      c.reset();
      std::fill(committed_until.begin(), committed_until.end(), 0.0);
      now = 0.0;
    }
    ASSERT_TRUE(c.index_consistent()) << "step " << step;
    for (NodeId id = 0; id < kNodes; ++id) free_times[id] = c.node(id).free_at();
    expect_matches_reference(c.index(), free_times, now, /*full=*/true);
    const std::vector<NodeId> order = reference_order(free_times, now);
    std::vector<NodeId> ids;
    c.earliest_free_nodes_into(now, 128, ids);
    ASSERT_EQ(ids, std::vector<NodeId>(order.begin(), order.begin() + 128))
        << "step " << step;
  }
}

TEST(AvailabilityIndexBucket, BucketDesyncThrows) {
  // A desynced mirror must fail loudly: wrong `from` (any bucket) and
  // unknown node ids both throw.
  AvailabilityIndex index;
  index.reset(300);  // several buckets
  EXPECT_THROW(index.update(2, 5.0, 10.0), std::logic_error);    // wrong `from`
  EXPECT_THROW(index.update(299, -1.0, 10.0), std::logic_error); // before every bucket
  EXPECT_THROW(index.update(300, 0.0, 10.0), std::logic_error);  // unknown node
  index.update(2, 0.0, 10.0);
  std::vector<Time> free_times(300, 0.0);
  free_times[2] = 10.0;
  ASSERT_TRUE(index.consistent_with(free_times));
  EXPECT_THROW(index.update(2, 0.0, 20.0), std::logic_error);  // stale `from`

  // A batch checks every entry before it changes anything: a stale `from`
  // in its last entry, an unknown node or a node named twice throws and
  // leaves the index - and the id marks it shares with the het snapshot -
  // as they were; so does a column-length mismatch.
  const std::vector<Time> zeros(3, 0.0);
  const std::vector<Time> to{7.0, 8.0, 9.0};
  const std::vector<NodeId> stale{5, 250, 2};
  const std::vector<NodeId> unknown{5, 250, 300};
  const std::vector<NodeId> repeated{5, 250, 5};
  EXPECT_THROW(index.update_batch(stale, zeros, to), std::logic_error);
  expect_matches_reference(index, free_times, 0.0, /*full=*/true);
  EXPECT_THROW(index.update_batch(unknown, zeros, to), std::logic_error);
  expect_matches_reference(index, free_times, 0.0, /*full=*/true);
  EXPECT_THROW(index.update_batch(repeated, zeros, to), std::logic_error);
  expect_matches_reference(index, free_times, 0.0, /*full=*/true);
  EXPECT_THROW(index.update_batch(stale, std::vector<Time>(2, 0.0), to),
               std::invalid_argument);
  expect_matches_reference(index, free_times, 0.0, /*full=*/true);
  // And the next valid batch applies in full.
  const std::vector<NodeId> fresh{5, 250, 7};
  batch_update(index, free_times, fresh, to);
  expect_matches_reference(index, free_times, 0.0, /*full=*/true);

  // Keys in index order are found entry after entry without a search, and
  // that shortcut must still match each key's own `from`. After the first
  // batch the index reads (0, 0), (0, 1), (0, 4), ..., (5, 3), (10, 2):
  // node 3 is at 5, not 0, and node 4 sits right after node 1 but at 0,
  // not 7.
  AvailabilityIndex small;
  small.reset(16);
  std::vector<Time> small_times(16, 0.0);
  const std::vector<NodeId> spread{2, 3};
  const std::vector<Time> spread_to{10.0, 5.0};
  batch_update(small, small_times, spread, spread_to);
  const std::vector<NodeId> dense{0, 1, 3, 2};
  EXPECT_THROW(small.update_batch(dense, std::vector<Time>{0.0, 0.0, 0.0, 10.0},
                                  std::vector<Time>(4, 20.0)),
               std::logic_error);
  expect_matches_reference(small, small_times, 0.0, /*full=*/true);
  const std::vector<NodeId> next_node{0, 1, 4};
  EXPECT_THROW(small.update_batch(next_node, std::vector<Time>{0.0, 0.0, 7.0},
                                  std::vector<Time>(3, 20.0)),
               std::logic_error);
  expect_matches_reference(small, small_times, 0.0, /*full=*/true);
  batch_update(small, small_times, dense, std::vector<Time>(4, 20.0));
  expect_matches_reference(small, small_times, 0.0, /*full=*/true);
}

TEST(AvailabilityIndexBucket, SingleUpdateDepthIsCompactionPlusMerge) {
  // A single update is a batch of one: its depth is the entries its bucket
  // compaction shifts (those after the old position) plus the entries its
  // merge shifts (those kept after the new position in the destination
  // bucket). The geometry stays whatever the batch leaves; the order is
  // always the strict (free_at, node) one.
  //
  // 256 nodes, node i booked to i in one batch: the last bucket takes the
  // 255 entries past node 0 and splits into pieces of 63, 64, 64 and 64,
  // and the first, left with node 0 alone, folds into the first piece -
  // four buckets of 64, node i at position i % 64 of bucket i / 64.
  AvailabilityIndex index;
  index.reset(256);
  std::vector<Time> free_times(256, 0.0);
  spread_nodes(index, free_times, 0, 256, 0.0);
  ASSERT_TRUE(index.consistent_with(free_times));
  // Node 10 moves from 10.0 to 12.5 inside its bucket: the compaction
  // shifts the 53 entries after it (nodes 11-63), the merge the 51 it lands
  // before (nodes 13-63).
  EXPECT_EQ(index.update(10, 10.0, 12.5), 53u + 51u);
  free_times[10] = 12.5;
  expect_matches_reference(index, free_times, 0.0, /*full=*/true);

  // One bucket of 16, node i free at 1 + i. Node 10 released to 0.5 frees
  // the 5 entries after it and becomes the new minimum in front of the
  // other 15.
  AvailabilityIndex single;
  single.reset(16);
  std::vector<Time> single_times(16, 0.0);
  spread_nodes(single, single_times, 0, 16, 1.0);
  EXPECT_EQ(single.update(10, 11.0, 0.5), 5u + 15u);
  single_times[10] = 0.5;
  expect_matches_reference(single, single_times, 0.0, /*full=*/true);
  // A no-op (to == from) is compacted out and merged back where it was:
  // node 3, fifth after the move above, costs the 11 entries after it
  // twice and leaves the order as it was.
  EXPECT_EQ(single.update(3, 4.0, 4.0), 11u + 11u);
  expect_matches_reference(single, single_times, 0.0, /*full=*/true);

  // Two buckets of 64: nodes 0-63 stay free at 0, node i >= 64 frees at i.
  // Node 70 released to 0.5 leaves the second bucket (57 entries after it
  // shift down) and lands at the end of the first, past every entry at 0,
  // which shifts nothing.
  AvailabilityIndex two;
  two.reset(128);
  std::vector<Time> two_times(128, 0.0);
  spread_nodes(two, two_times, 64, 128, 64.0);
  EXPECT_EQ(two.update(70, 70.0, 0.5), 57u);
  two_times[70] = 0.5;
  expect_matches_reference(two, two_times, 0.0, /*full=*/true);
}

TEST(AvailabilityIndexBucket, FoldAfterSizeKeepingBatchRefreshesRankSums) {
  // A bucket below the fold threshold keeps its place while its neighbor is
  // too large to take it; once the neighbor shrinks, the next batch that
  // touches the small bucket folds the two, even when every touched bucket
  // kept its size. Rank queries and the view must read the folded layout.
  for (const std::size_t k : {std::size_t{1}, std::size_t{2}}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    AvailabilityIndex index;
    index.reset(256);
    std::vector<Time> free_times(256, 0.0);
    spread_nodes(index, free_times, 0, 256, 0.0);       // four buckets of 64, node i at i
    spread_nodes(index, free_times, 192, 222, 64.5);    // 30 more in the second: 94
    spread_nodes(index, free_times, 10, 64, 1000.0);    // the first shrinks to 10
    spread_nodes(index, free_times, 64, 84, 2000.0);    // the second shrinks to 74
    expect_matches_reference(index, free_times, 0.0, /*full=*/false);
    // Nodes 0 (and 1) move inside the first bucket: sizes stay, then it folds.
    spread_nodes(index, free_times, 0, static_cast<NodeId>(k), 0.25);
    expect_matches_reference(index, free_times, 150.0, /*full=*/true);
  }
}

}  // namespace
}  // namespace rtdls
