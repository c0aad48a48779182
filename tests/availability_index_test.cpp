// Tests for cluster::AvailabilityIndex (the sorted free-time index behind
// Cluster's availability reads): unit equivalence against the brute-force
// sort it replaced, index-consistency invariants across single and batched
// commits and early releases and a mid-run reset, and large-N (512 nodes)
// property tests
// asserting the incremental admission path stays bit-identical to the
// stateless Figure-2 reference on top of the index.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <vector>

#include "batch_storm.hpp"
#include "cluster/cluster.hpp"
#include "sim/simulator.hpp"
#include "workload/generator.hpp"
#include "workload/rng.hpp"

namespace rtdls {
namespace {

using cluster::NodeId;
using cluster::Time;

/// The pre-index availability computation: sort max(free_at, now).
std::vector<Time> reference_availability(const cluster::Cluster& c, Time now) {
  std::vector<Time> out;
  for (std::size_t i = 0; i < c.size(); ++i) {
    out.push_back(std::max(c.node(static_cast<NodeId>(i)).free_at(), now));
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// The pre-index node selection: stable sort of ids by (floored time, id).
std::vector<NodeId> reference_earliest(const cluster::Cluster& c, Time now, std::size_t n) {
  std::vector<NodeId> ids(c.size());
  std::iota(ids.begin(), ids.end(), 0);
  std::stable_sort(ids.begin(), ids.end(), [&](NodeId a, NodeId b) {
    const Time fa = std::max(c.node(a).free_at(), now);
    const Time fb = std::max(c.node(b).free_at(), now);
    if (fa != fb) return fa < fb;
    return a < b;
  });
  ids.resize(n);
  return ids;
}

void expect_index_matches_reference(const cluster::Cluster& c, Time now) {
  ASSERT_TRUE(c.index_consistent());
  cluster::AvailabilityRow row;
  c.availability_into(now, row);
  EXPECT_TRUE(row.ids.empty());  // homogeneous: interchangeable nodes
  const std::vector<Time> expected = reference_availability(c, now);
  ASSERT_EQ(row.times.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(row.times[i], expected[i]) << "position " << i << " at now=" << now;
  }
  for (std::size_t n : {std::size_t{1}, c.size() / 2, c.size()}) {
    if (n == 0) continue;
    std::vector<NodeId> ids;
    c.earliest_free_nodes_into(now, n, ids);
    EXPECT_EQ(ids, reference_earliest(c, now, n)) << "n=" << n << " now=" << now;
  }
  // The het snapshot: ids in stable (floored time, id) order, each with its
  // own floored time.
  const std::vector<NodeId> expected_ids = reference_earliest(c, now, c.size());
  std::vector<Time> expected_times;
  for (const NodeId id : expected_ids) {
    expected_times.push_back(std::max(c.node(id).free_at(), now));
  }
  std::vector<Time> times;
  std::vector<NodeId> ids;
  c.index().availability_with_ids_into(now, times, ids);
  EXPECT_EQ(times, expected_times) << "now=" << now;
  EXPECT_EQ(ids, expected_ids) << "now=" << now;
  // The row view at lengths 0, 1, F, F + 1 and N, and the cluster's own
  // (id-less, homogeneous) view in full.
  std::vector<Time> free_times;
  for (NodeId id = 0; id < c.size(); ++id) free_times.push_back(c.node(id).free_at());
  test::expect_view_matches(c.index(), free_times, now, /*whole=*/true);
  cluster::AvailabilityView view;
  c.open_view(now, view);
  EXPECT_FALSE(view.with_ids());
  EXPECT_EQ(view.dense().times, expected);
  ASSERT_TRUE(c.index_consistent());
}

TEST(AvailabilityIndex, InitialStateIsAllFreeInIdOrder) {
  cluster::Cluster c({.node_count = 8, .cms = 1.0, .cps = 100.0});
  ASSERT_TRUE(c.index_consistent());
  EXPECT_TRUE(c.index().consistent_with(std::vector<Time>(8, 0.0)));
  expect_index_matches_reference(c, 0.0);
}

TEST(AvailabilityIndex, TracksRandomCommitReleaseSequences) {
  // Randomized sequences of the mutations the index must mirror - single
  // and batched commits and early releases - and of `now` (forward, kept,
  // landed on a release time, moved back), cross-checked against the
  // brute-force sort after every step, at node counts on both sides of
  // each bucket-geometry edge: one node, one partly filled and one full
  // 64-entry bucket, a full bucket plus one (65), two full buckets plus
  // one (129), and 300 nodes, whose floored prefix spans several buckets.
  // Every tenth step books a batch of k nodes, k cycling from 1 to the
  // whole cluster (past 2 x 128, the split threshold, at 300 nodes), to one
  // shared release time or to distinct ones.
  constexpr std::size_t kNodeCounts[] = {1, 16, 64, 65, 129, 300};
  constexpr std::size_t kBatchSizes[] = {1, 2, 8, 65, 129, 257, 300};
  for (const std::size_t nodes : kNodeCounts) {
    cluster::Cluster c({.node_count = nodes, .cms = 1.0, .cps = 100.0});
    workload::Xoshiro256StarStar rng(12345);
    workload::Xoshiro256StarStar batch_rng(54321);
    std::vector<Time> committed_until(nodes, 0.0);
    Time now = 0.0;
    std::size_t now_moves = 0;
    std::size_t widest_floor = 0;  // after the initial all-idle stretch
    std::size_t batches = 0;
    std::size_t largest_batch = 0;
    for (int step = 0; step < 400; ++step) {
      const auto node = static_cast<NodeId>(rng() % nodes);
      const double action = rng.next_double();
      if (step % 10 == 9) {
        const std::size_t k =
            std::min(nodes, kBatchSizes[batches % std::size(kBatchSizes)]);
        const bool release = batches % 3 == 2;
        const bool shared_time = batches % 2 == 0;
        const bool scattered = (batches / 2) % 2 == 1;
        ++batches;
        largest_batch = std::max(largest_batch, k);
        const std::vector<NodeId> ids =
            test::pick_batch(committed_until, now, k, scattered, batch_rng);
        test::book_batch(c, ids, release, shared_time, now, committed_until, batch_rng,
                         static_cast<cluster::TaskId>(step));
      } else if (action < 0.70) {
        // Commit the node to a new interval after its current release.
        const Time start = std::max(committed_until[node], now) + rng.next_double() * 50.0;
        const Time end = start + 1.0 + rng.next_double() * 500.0;
        c.commit(node, static_cast<cluster::TaskId>(step), start, start, end);
        committed_until[node] = end;
      } else if (action < 0.85) {
        // Release it early somewhere inside its committed window.
        const Time at = committed_until[node] * (0.5 + 0.5 * rng.next_double());
        c.release_early_batch({&node, 1}, {&at, 1});
        committed_until[node] = at;
      } else {
        now = test::next_now(now, committed_until, now_moves++, 100.0, rng);
      }
      if (step >= 200) {
        const auto floored = static_cast<std::size_t>(std::count_if(
            committed_until.begin(), committed_until.end(), [&](Time t) { return t <= now; }));
        widest_floor = std::max(widest_floor, floored);
      }
      expect_index_matches_reference(c, now);
    }
    if (nodes == 300) {
      EXPECT_GT(widest_floor, 2u * 64u);
      EXPECT_GT(largest_batch, 2u * 128u);
    }
  }
}

TEST(AvailabilityIndex, MidRunResetRestoresTheInitialIndex) {
  cluster::Cluster c({.node_count = 16, .cms = 1.0, .cps = 100.0});
  for (NodeId id = 0; id < 16; ++id) {
    c.commit(id, 1, 0.0, 0.0, 100.0 + 10.0 * static_cast<double>(id));
  }
  expect_index_matches_reference(c, 50.0);
  const std::uint64_t version_before = c.version();
  c.reset();
  EXPECT_GT(c.version(), version_before);  // resets must invalidate sessions
  ASSERT_TRUE(c.index_consistent());
  EXPECT_TRUE(c.index().consistent_with(std::vector<Time>(16, 0.0)));
  expect_index_matches_reference(c, 0.0);
  // And the index keeps working after the reset (back-to-back sweep cells).
  c.commit(3, 2, 0.0, 0.0, 42.0);
  expect_index_matches_reference(c, 0.0);
}

TEST(AvailabilityIndex, ViewGoesStaleWhenTheIndexOrWatermarkMoves) {
  // A view reads the index through a cursor: a mutation, or a view opened
  // at another `now`, changes the row under it, and its next fill throws
  // instead of mixing two rows. A view opened at the same `now` leaves it
  // valid; settling a partly filled view drops it.
  cluster::Cluster c({.node_count = 200, .cms = 1.0, .cps = 100.0});
  for (NodeId id = 0; id < 200; id += 3) c.commit(id, 1, 0.0, 0.0, 10.0 + id);
  cluster::AvailabilityView view;
  c.open_view(5.0, view);
  view.fill(10);
  cluster::AvailabilityView same;
  c.open_view(5.0, same);
  view.fill(150);
  EXPECT_EQ(view.times().size(), 150u);
  cluster::AvailabilityView later;
  c.open_view(6.0, later);
  EXPECT_THROW(view.fill(160), std::logic_error);
  later.fill(20);
  c.commit(1, 2, 6.0, 6.0, 500.0);
  EXPECT_THROW(later.fill(21), std::logic_error);
  EXPECT_FALSE(later.settle());
  EXPECT_TRUE(later.times().empty());
  EXPECT_THROW(same.fill(201), std::out_of_range);
  // A NaN `now` is refused before it can move the watermark.
  EXPECT_THROW(c.open_view(std::numeric_limits<Time>::quiet_NaN(), later),
               std::invalid_argument);
  ASSERT_TRUE(c.index_consistent());
  expect_index_matches_reference(c, 6.0);
}

TEST(AvailabilityIndex, DesyncedUpdateThrows) {
  cluster::Cluster c({.node_count = 4, .cms = 1.0, .cps = 100.0});
  cluster::AvailabilityIndex index;
  index.reset(4);
  EXPECT_THROW(index.update(2, 5.0, 10.0), std::logic_error);  // wrong `from`
  EXPECT_THROW(index.update(9, 0.0, 10.0), std::logic_error);  // unknown node
  index.update(2, 0.0, 10.0);
  EXPECT_TRUE(index.consistent_with({0.0, 0.0, 10.0, 0.0}));
}

// --- large-N incremental-vs-full property tests ------------------------------

workload::WorkloadParams large_cluster_params(std::uint64_t seed, double load,
                                              double dc_ratio) {
  workload::WorkloadParams params;
  params.cluster = {.node_count = 512, .cms = 1.0, .cps = 100.0};
  params.system_load = load;
  params.dc_ratio = dc_ratio;
  params.total_time = 30000.0;
  params.seed = seed;
  return params;
}

/// The simulator with the driver's cross-check armed, which throws unless
/// every waiting queue it adopts equals the full Figure-2 test's schedule,
/// task for task and plan for plan, bit for bit.
void expect_identical_schedules_at_512(const std::string& algorithm,
                                       const workload::WorkloadParams& params,
                                       sim::ReleasePolicy release_policy) {
  const auto tasks = workload::generate_workload(params);
  sim::SimulatorConfig config;
  config.params = params.cluster;
  config.release_policy = release_policy;
  config.cross_check_admission = true;
  const sim::SimMetrics metrics =
      sim::simulate(config, algorithm, tasks, params.total_time);

  EXPECT_EQ(metrics.accepted + metrics.rejected, tasks.size()) << algorithm;
  EXPECT_GT(metrics.accepted, 0u) << algorithm;
  EXPECT_EQ(metrics.deadline_misses, 0u) << algorithm;
}

TEST(AvailabilityIndexLargeN, IncrementalMatchesFullAt512Nodes) {
  // EDF/FIFO x DLT/MR2 at N=512: the indexed availability reads, the merge
  // in apply_releases, and the galloping n_min search must leave the schedules
  // bit-identical to the stateless reference (cross-check mode throws on
  // the first divergent arrival).
  const char* algorithms[] = {"EDF-DLT", "FIFO-DLT", "EDF-MR2", "FIFO-MR2"};
  const std::uint64_t seeds[] = {1, 11};
  for (const char* algorithm : algorithms) {
    for (std::uint64_t seed : seeds) {
      expect_identical_schedules_at_512(algorithm, large_cluster_params(seed, 1.0, 20.0),
                                        sim::ReleasePolicy::kEstimate);
    }
  }
}

TEST(AvailabilityIndexLargeN, IncrementalMatchesFullUnderEarlyReleaseAt512Nodes) {
  // kActual releases reposition index entries backwards (release_early);
  // the availability version must still invalidate cleanly and the index
  // must stay exact.
  expect_identical_schedules_at_512("EDF-DLT", large_cluster_params(3, 1.1, 20.0),
                                    sim::ReleasePolicy::kActual);
  expect_identical_schedules_at_512("FIFO-MR2", large_cluster_params(5, 1.1, 20.0),
                                    sim::ReleasePolicy::kActual);
}

}  // namespace
}  // namespace rtdls
