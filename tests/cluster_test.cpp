// Tests for the cluster substrate: node commitments, IIT accounting,
// availability snapshots, early release.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "cluster/cluster.hpp"

namespace rtdls::cluster {
namespace {

ClusterParams small_params() { return {.node_count = 4, .cms = 1.0, .cps = 100.0}; }

TEST(ClusterParams, Beta) {
  EXPECT_NEAR(small_params().beta(), 100.0 / 101.0, 1e-15);
  EXPECT_TRUE(small_params().valid());
  EXPECT_FALSE(ClusterParams{.node_count = 0}.valid());
  EXPECT_FALSE((ClusterParams{.node_count = 4, .cms = 0.0, .cps = 1.0}).valid());
}

TEST(Node, CommitTracksBusyAndRelease) {
  Node node(0);
  EXPECT_DOUBLE_EQ(node.free_at(), 0.0);
  node.commit(/*task=*/7, /*usable_from=*/10.0, /*start=*/10.0, /*end=*/50.0);
  EXPECT_DOUBLE_EQ(node.free_at(), 50.0);
  EXPECT_EQ(node.current_task(), 7u);
  EXPECT_DOUBLE_EQ(node.busy_time(), 40.0);
  EXPECT_DOUBLE_EQ(node.idle_gap_time(), 0.0);
  EXPECT_EQ(node.commitments(), 1u);
}

TEST(Node, InsertedIdleTimeIsStartMinusUsable) {
  Node node(0);
  // OPR-style: the node was usable at 10 but held idle until r_n = 25.
  node.commit(1, 10.0, 25.0, 60.0);
  EXPECT_DOUBLE_EQ(node.idle_gap_time(), 15.0);
  EXPECT_DOUBLE_EQ(node.busy_time(), 35.0);
}

TEST(Node, OverlappingCommitThrows) {
  Node node(0);
  node.commit(1, 0.0, 0.0, 100.0);
  EXPECT_THROW(node.commit(2, 50.0, 50.0, 120.0), std::logic_error);
}

TEST(Node, BackwardsIntervalThrows) {
  Node node(0);
  EXPECT_THROW(node.commit(1, 0.0, 10.0, 5.0), std::invalid_argument);
}

TEST(Node, ReleaseEarlyCreditsBusyTime) {
  Node node(0);
  node.commit(1, 0.0, 0.0, 100.0);
  node.release_early(80.0);
  EXPECT_DOUBLE_EQ(node.free_at(), 80.0);
  EXPECT_DOUBLE_EQ(node.busy_time(), 80.0);
  EXPECT_EQ(node.current_task(), kNoTask);
  // A new commitment may start at the early release point.
  node.commit(2, 80.0, 80.0, 90.0);
  EXPECT_DOUBLE_EQ(node.free_at(), 90.0);
}

TEST(Node, ReleaseEarlyLaterThanCommitThrows) {
  Node node(0);
  node.commit(1, 0.0, 0.0, 100.0);
  EXPECT_THROW(node.release_early(120.0), std::logic_error);
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

}  // namespace
}  // namespace rtdls::cluster
