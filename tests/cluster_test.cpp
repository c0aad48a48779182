// Tests for the cluster substrate: node commitments, IIT accounting,
// availability snapshots, early release.
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <vector>

#include "cluster/cluster.hpp"
#include "obs/metrics.hpp"

namespace rtdls::cluster {
namespace {

ClusterParams small_params() { return {.node_count = 4, .cms = 1.0, .cps = 100.0}; }

TEST(ClusterParams, Beta) {
  EXPECT_NEAR(small_params().beta(), 100.0 / 101.0, 1e-15);
  EXPECT_TRUE(small_params().valid());
  EXPECT_FALSE(ClusterParams{.node_count = 0}.valid());
  EXPECT_FALSE((ClusterParams{.node_count = 4, .cms = 0.0, .cps = 1.0}).valid());
}

TEST(ClusterParams, InfiniteOrNanCostsAreInvalid) {
  // A cost must be finite as well as positive: an infinite Cms or Cps
  // passed validation once, so a simulation failed deep inside the workload
  // generator and a daemon shard started only to reject every admit.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double bad : {inf, -inf, nan}) {
    ClusterParams cms = small_params();
    cms.cms = bad;
    ClusterParams cps = small_params();
    cps.cps = bad;
    EXPECT_FALSE(cms.valid()) << "cms=" << bad;
    EXPECT_FALSE(cps.valid()) << "cps=" << bad;
    EXPECT_THROW(Cluster{cms}, std::invalid_argument) << "cms=" << bad;
    EXPECT_THROW(Cluster{cps}, std::invalid_argument) << "cps=" << bad;
  }
}

// Node's write protocol: check first, then write (Cluster::commit_batch and
// release_early_batch check a whole batch before they write any node).
void checked_commit(Node& node, TaskId task, Time usable_from, Time start, Time end) {
  node.check_commit(start, end);
  node.book(task, usable_from, start, end);
}

void checked_release_early(Node& node, Time at) {
  node.check_release_early(at);
  node.release_early(at);
}

TEST(Node, CommitTracksBusyAndRelease) {
  Node node(0);
  EXPECT_DOUBLE_EQ(node.free_at(), 0.0);
  checked_commit(node, /*task=*/7, /*usable_from=*/10.0, /*start=*/10.0, /*end=*/50.0);
  EXPECT_DOUBLE_EQ(node.free_at(), 50.0);
  EXPECT_EQ(node.current_task(), 7u);
  EXPECT_DOUBLE_EQ(node.busy_time(), 40.0);
  EXPECT_DOUBLE_EQ(node.idle_gap_time(), 0.0);
  EXPECT_EQ(node.commitments(), 1u);
}

TEST(Node, InsertedIdleTimeIsStartMinusUsable) {
  Node node(0);
  // OPR-style: the node was usable at 10 but held idle until r_n = 25.
  checked_commit(node, 1, 10.0, 25.0, 60.0);
  EXPECT_DOUBLE_EQ(node.idle_gap_time(), 15.0);
  EXPECT_DOUBLE_EQ(node.busy_time(), 35.0);
}

TEST(Node, OverlappingCommitThrows) {
  Node node(0);
  checked_commit(node, 1, 0.0, 0.0, 100.0);
  EXPECT_THROW(node.check_commit(50.0, 120.0), std::logic_error);
}

TEST(Node, BackwardsIntervalThrows) {
  Node node(0);
  EXPECT_THROW(node.check_commit(10.0, 5.0), std::invalid_argument);
}

TEST(Node, ReleaseEarlyCreditsBusyTime) {
  Node node(0);
  checked_commit(node, 1, 0.0, 0.0, 100.0);
  checked_release_early(node, 80.0);
  EXPECT_DOUBLE_EQ(node.free_at(), 80.0);
  EXPECT_DOUBLE_EQ(node.busy_time(), 80.0);
  EXPECT_EQ(node.current_task(), kNoTask);
  // A new commitment may start at the early release point.
  checked_commit(node, 2, 80.0, 80.0, 90.0);
  EXPECT_DOUBLE_EQ(node.free_at(), 90.0);
}

TEST(Node, ReleaseEarlyLaterThanCommitThrows) {
  Node node(0);
  checked_commit(node, 1, 0.0, 0.0, 100.0);
  EXPECT_THROW(checked_release_early(node, 120.0), std::logic_error);
  EXPECT_DOUBLE_EQ(node.free_at(), 100.0);  // the failed check wrote nothing
  EXPECT_DOUBLE_EQ(node.busy_time(), 100.0);
}

TEST(Cluster, ConstructionAndInvalidParams) {
  Cluster cluster(small_params());
  EXPECT_EQ(cluster.size(), 4u);
  EXPECT_THROW(Cluster(ClusterParams{.node_count = 0}), std::invalid_argument);
}

TEST(Cluster, AvailabilitySortedAndFlooredAtNow) {
  Cluster cluster(small_params());
  cluster.commit(2, 1, 0.0, 0.0, 500.0);
  cluster.commit(0, 2, 0.0, 0.0, 300.0);
  AvailabilityRow row;
  cluster.availability_into(100.0, row);
  ASSERT_EQ(row.times.size(), 4u);
  EXPECT_DOUBLE_EQ(row.times[0], 100.0);  // idle nodes floored at now
  EXPECT_DOUBLE_EQ(row.times[1], 100.0);
  EXPECT_DOUBLE_EQ(row.times[2], 300.0);
  EXPECT_DOUBLE_EQ(row.times[3], 500.0);
  EXPECT_TRUE(row.ids.empty());  // homogeneous nodes are interchangeable
}

TEST(Cluster, EarliestFreeNodesOrderAndTies) {
  Cluster cluster(small_params());
  cluster.commit(1, 9, 0.0, 0.0, 400.0);
  std::vector<NodeId> ids;
  cluster.earliest_free_nodes_into(0.0, 4, ids);
  ASSERT_EQ(ids.size(), 4u);
  // Idle nodes (0, 2, 3) first by id; busy node 1 last.
  EXPECT_EQ(ids[0], 0u);
  EXPECT_EQ(ids[1], 2u);
  EXPECT_EQ(ids[2], 3u);
  EXPECT_EQ(ids[3], 1u);
}

TEST(Cluster, EarliestFreeNodesBoundsChecked) {
  Cluster cluster(small_params());
  std::vector<NodeId> ids{7};
  EXPECT_THROW(cluster.earliest_free_nodes_into(0.0, 5, ids), std::invalid_argument);
  cluster.earliest_free_nodes_into(0.0, 0, ids);
  EXPECT_TRUE(ids.empty());
}

TEST(Cluster, TotalsAggregateAcrossNodes) {
  Cluster cluster(small_params());
  cluster.commit(0, 1, 0.0, 0.0, 100.0);
  cluster.commit(1, 1, 0.0, 50.0, 100.0);  // 50 of IIT
  EXPECT_DOUBLE_EQ(cluster.total_busy_time(), 150.0);
  EXPECT_DOUBLE_EQ(cluster.total_idle_gap_time(), 50.0);
}

TEST(Cluster, SequentialCommitsOnSameNode) {
  Cluster cluster(small_params());
  cluster.commit(0, 1, 0.0, 0.0, 100.0);
  cluster.commit(0, 2, 100.0, 150.0, 200.0);
  EXPECT_DOUBLE_EQ(cluster.node(0).free_at(), 200.0);
  EXPECT_DOUBLE_EQ(cluster.node(0).idle_gap_time(), 50.0);
  EXPECT_EQ(cluster.node(0).commitments(), 2u);
}

/// Every node's release time and accounting, and the cluster's version.
struct ClusterState {
  std::vector<Time> free_at;
  std::vector<Time> busy;
  std::vector<Time> idle_gap;
  std::vector<std::size_t> commitments;
  std::uint64_t version = 0;
  bool operator==(const ClusterState&) const = default;
};

ClusterState state_of(const Cluster& cluster) {
  ClusterState state;
  for (NodeId id = 0; id < cluster.size(); ++id) {
    state.free_at.push_back(cluster.node(id).free_at());
    state.busy.push_back(cluster.node(id).busy_time());
    state.idle_gap.push_back(cluster.node(id).idle_gap_time());
    state.commitments.push_back(cluster.node(id).commitments());
  }
  state.version = cluster.version();
  return state;
}

TEST(Cluster, BatchThatFailsAnyNodeCheckChangesNothing) {
  // 200 nodes: a four-bucket index, so the batch spans buckets.
  Cluster cluster({.node_count = 200, .cms = 1.0, .cps = 100.0});
  for (NodeId id = 0; id < 200; id += 3) {
    cluster.commit(id, 1, 0.0, 0.0, 10.0 + static_cast<Time>(id));
  }
  const ClusterState before = state_of(cluster);
  ASSERT_TRUE(cluster.index_consistent());

  // Nodes 1, 2, 4, ..., 97 start at 300; the last one, node 99, is booked
  // until 109 and is asked to start at 50: an overlap.
  std::vector<NodeId> ids;
  for (NodeId id = 1; id < 100; ++id) {
    if (id % 3 != 0) ids.push_back(id);
  }
  ids.push_back(99);
  std::vector<Time> start(ids.size(), 300.0);
  std::vector<Time> end(ids.size(), 400.0);
  start.back() = 50.0;
  EXPECT_THROW(cluster.commit_batch(ids, 2, start, start, end), std::logic_error);
  EXPECT_EQ(state_of(cluster), before);
  EXPECT_TRUE(cluster.index_consistent());

  // A last node whose interval runs backwards, and a node named twice.
  start.back() = 300.0;
  end.back() = 200.0;
  EXPECT_THROW(cluster.commit_batch(ids, 2, start, start, end), std::invalid_argument);
  EXPECT_EQ(state_of(cluster), before);
  end.back() = 400.0;
  ids.back() = ids.front();
  EXPECT_THROW(cluster.commit_batch(ids, 2, start, start, end), std::logic_error);
  EXPECT_EQ(state_of(cluster), before);
  EXPECT_TRUE(cluster.index_consistent());

  // An early-release batch whose last node would release past its booking.
  const std::vector<NodeId> busy{0, 3, 6};
  const std::vector<Time> past{5.0, 5.0, 17.0};  // node 6 is booked until 16
  EXPECT_THROW(cluster.release_early_batch(busy, past), std::logic_error);
  EXPECT_EQ(state_of(cluster), before);
  EXPECT_TRUE(cluster.index_consistent());

  // A valid batch: every node booked, one version bump, one depth sample.
  ids.back() = 99;
  start.back() = 109.0;
  const std::uint64_t samples =
      obs::Registry::global().histogram_sample("rtdls_index_commit_depth").count;
  cluster.commit_batch(ids, 2, start, start, end);
  EXPECT_EQ(obs::Registry::global().histogram_sample("rtdls_index_commit_depth").count,
            samples + 1);
  EXPECT_EQ(cluster.version(), before.version + 1);
  for (const NodeId id : ids) EXPECT_EQ(cluster.node(id).free_at(), 400.0) << id;
  EXPECT_DOUBLE_EQ(cluster.node(99).busy_time(), 400.0);
  EXPECT_TRUE(cluster.index_consistent());
}

}  // namespace
}  // namespace rtdls::cluster
