// Tests for the sparse plan-delta admission session and the het resolver's
// capacity-jump scan.
//
// Three pillars:
//  1. Delta replay: replaying the sorted releases apply_releases leaves in
//     its scratch (the flat delta the session records) onto a copy of the
//     pre-state reproduces the post-state bit for bit (rows with and
//     without ids), also after the session's column edits (truncate,
//     drop_front, append) - the invariant the checkpointed session stands
//     on.
//  2. Randomized property runs (EDF/FIFO x every rule, het and homogeneous)
//     with the controller cross-check armed: deep queues at N=512 and a
//     shallow, trace-replay-shaped queue at N=4096 (rules that read a
//     prefix, rules that read the whole row). The session must stay bitwise
//     schedule-identical to the full Figure-2 test; the shallow prefix scans
//     must plan off the live view without ever holding a dense row; and the
//     deep sessions' peak availability-state footprint must undercut the
//     historical dense one-row-per-task representation by >= 5x.
//  3. Het resolver differential: the galloped capacity-jump scan must return
//     the exact accept position / reject reason of the linear reference walk
//     on adversarial availability states (deep crossings, mid-scan hard
//     rejects of both flavors, whole-cluster infeasibility).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "cluster/availability_delta.hpp"
#include "cluster/speed_profile.hpp"
#include "dlt/het_model.hpp"
#include "obs/metrics.hpp"
#include "sched/admission.hpp"
#include "sched/het_planner.hpp"
#include "sched/registry.hpp"
#include "sim/schedule_log.hpp"
#include "sim/simulator.hpp"
#include "workload/generator.hpp"

namespace rtdls {
namespace {

using cluster::SpeedProfile;

/// Deterministic splitmix64 stream (stdlib distributions are not pinned
/// across platforms; we scale integers ourselves).
struct TestRng {
  std::uint64_t state;
  explicit TestRng(std::uint64_t seed) : state(seed) {}
  std::uint64_t next() {
    state += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  double uniform(double lo, double hi) {
    const double u = static_cast<double>(next() >> 11) * 0x1.0p-53;
    return lo + u * (hi - lo);
  }
  std::size_t index(std::size_t n) { return static_cast<std::size_t>(next() % n); }
};

// --- delta replay ----------------------------------------------------------

/// Reference for apply_releases: the row's entries after its first k, plus
/// the k releases, sorted by time (rows without ids) or by (time, id).
cluster::AvailabilityRow reference_apply(
    const cluster::AvailabilityRow& row, const std::vector<cluster::Time>& releases,
    const std::vector<cluster::NodeId>& release_ids) {
  const std::size_t k = releases.size();
  std::vector<std::pair<cluster::Time, cluster::NodeId>> entries;
  for (std::size_t i = k; i < row.times.size(); ++i) {
    entries.emplace_back(row.times[i], row.ids.empty() ? 0 : row.ids[i]);
  }
  for (std::size_t i = 0; i < k; ++i) {
    entries.emplace_back(releases[i], row.ids.empty() ? 0 : release_ids[i]);
  }
  std::sort(entries.begin(), entries.end());
  cluster::AvailabilityRow out;
  for (const auto& [t, id] : entries) {
    out.times.push_back(t);
    if (!row.ids.empty()) out.ids.push_back(id);
  }
  return out;
}

/// A random row of n entries: times off `rng` (on a coarse grid when
/// `ties`), with a strict (time, id) ordered id column when `with_ids`.
cluster::AvailabilityRow random_row(TestRng& rng, std::size_t n, bool with_ids,
                                    bool ties) {
  std::vector<std::pair<cluster::Time, cluster::NodeId>> entries(n);
  for (std::size_t i = 0; i < n; ++i) {
    const cluster::Time t = rng.uniform(0.0, 1000.0);
    entries[i] = {ties ? std::floor(t / 100.0) : t, static_cast<cluster::NodeId>(i)};
  }
  std::sort(entries.begin(), entries.end());
  cluster::AvailabilityRow row;
  for (const auto& [t, id] : entries) {
    row.times.push_back(t);
    if (with_ids) row.ids.push_back(id);
  }
  return row;
}

TEST(AvailabilityDelta, ReplayReproducesForwardApplicationBitwise) {
  TestRng rng(7);
  cluster::AvailabilityRow merge_scratch;
  const std::vector<cluster::NodeId> no_ids;
  for (int round = 0; round < 50; ++round) {
    const std::size_t n = 1 + rng.index(64);
    const std::size_t k = 1 + rng.index(n);
    cluster::AvailabilityRow state =
        random_row(rng, n, /*with_ids=*/false, /*ties=*/round % 2 == 0);
    std::vector<cluster::Time> releases(k);
    for (auto& t : releases) t = rng.uniform(0.0, 2000.0);
    std::sort(releases.begin(), releases.end());

    const cluster::AvailabilityRow before = state;
    cluster::apply_releases(state, releases, no_ids, merge_scratch);
    ASSERT_EQ(merge_scratch.times.size(), k);
    ASSERT_TRUE(merge_scratch.ids.empty());
    ASSERT_TRUE(std::is_sorted(merge_scratch.times.begin(), merge_scratch.times.end()));
    ASSERT_EQ(state.times, reference_apply(before, releases, no_ids).times)
        << "round " << round;
    ASSERT_TRUE(state.ids.empty());

    cluster::DeltaColumns deltas;
    deltas.push(merge_scratch);
    ASSERT_TRUE(deltas.ids.empty());
    cluster::AvailabilityRow replayed = before;
    deltas.replay(0, replayed);
    ASSERT_EQ(replayed.times, state.times) << "round " << round;
    ASSERT_TRUE(replayed.ids.empty());
  }
}

TEST(AvailabilityDelta, HetReplayKeepsStrictTimeIdOrder) {
  TestRng rng(11);
  cluster::AvailabilityRow merge_scratch;
  for (int round = 0; round < 80; ++round) {
    const std::size_t n = 1 + rng.index(64);
    const std::size_t k = 1 + rng.index(n);
    cluster::AvailabilityRow state =
        random_row(rng, n, /*with_ids=*/true, /*ties=*/round % 2 == 0);
    // Slot-aligned releases for the consumed prefix, in four shapes:
    //  0: random times, not pre-sorted (a het multi-round plan's per-slot
    //     completions);
    //  1: one instant with the ids in descending order, so the ids alone
    //     decide the order and the run is out of order whenever k > 1;
    //  2: one instant with the ids ascending - a tied DLT prefix, which
    //     arrives already in strict (time, id) order;
    //  3: strictly increasing times, also already in order.
    const int shape = round % 4;
    std::vector<cluster::Time> releases(k);
    const auto consumed = static_cast<std::ptrdiff_t>(k);
    std::vector<cluster::NodeId> release_ids(state.ids.begin(),
                                             state.ids.begin() + consumed);
    const cluster::Time common = rng.uniform(500.0, 2000.0);
    for (auto& t : releases) {
      t = shape == 1 || shape == 2 ? common : rng.uniform(500.0, 2000.0);
    }
    if (shape == 1) std::sort(release_ids.begin(), release_ids.end(), std::greater<>());
    if (shape == 2) std::sort(release_ids.begin(), release_ids.end());
    if (shape == 3) std::sort(releases.begin(), releases.end());

    const cluster::AvailabilityRow before = state;
    cluster::apply_releases(state, releases, release_ids, merge_scratch);
    ASSERT_EQ(merge_scratch.times.size(), k);
    ASSERT_EQ(merge_scratch.ids.size(), k);
    // The scratch run equals a reference sort of the releases by (time, id),
    // whether apply_releases sorted them or found them in order.
    std::vector<std::pair<cluster::Time, cluster::NodeId>> run;
    for (std::size_t i = 0; i < k; ++i) run.emplace_back(releases[i], release_ids[i]);
    std::sort(run.begin(), run.end());
    for (std::size_t i = 0; i < k; ++i) {
      ASSERT_EQ(merge_scratch.times[i], run[i].first) << "round " << round << " at " << i;
      ASSERT_EQ(merge_scratch.ids[i], run[i].second) << "round " << round << " at " << i;
    }
    const cluster::AvailabilityRow expected =
        reference_apply(before, releases, release_ids);
    ASSERT_EQ(state.times, expected.times) << "round " << round;
    ASSERT_EQ(state.ids, expected.ids) << "round " << round;

    // The scratch is the delta the admission session records.
    cluster::DeltaColumns deltas;
    deltas.push(merge_scratch);
    cluster::AvailabilityRow replayed = before;
    deltas.replay(0, replayed);
    ASSERT_EQ(replayed.times, state.times) << "round " << round;
    ASSERT_EQ(replayed.ids, state.ids) << "round " << round;
    for (std::size_t i = 1; i < n; ++i) {
      const bool tied = state.times[i - 1] == state.times[i];
      ASSERT_TRUE(state.times[i - 1] < state.times[i] ||
                  (tied && state.ids[i - 1] < state.ids[i]))
          << "round " << round << " position " << i;
    }
  }
}

TEST(AvailabilityDelta, FloorAndSortOrdersRowsWithAndWithoutIds) {
  TestRng rng(5);
  cluster::AvailabilityRow scratch;
  for (int round = 0; round < 20; ++round) {
    const std::size_t n = 1 + rng.index(64);
    const bool with_ids = round % 2 == 1;
    cluster::AvailabilityRow row;
    for (std::size_t i = 0; i < n; ++i) {
      row.times.push_back(std::floor(rng.uniform(0.0, 10.0)));
      if (with_ids) row.ids.push_back(static_cast<cluster::NodeId>(n - 1 - i));
    }
    const cluster::Time now = 4.0;
    std::vector<std::pair<cluster::Time, cluster::NodeId>> expected;
    for (std::size_t i = 0; i < n; ++i) {
      expected.emplace_back(std::max(row.times[i], now), with_ids ? row.ids[i] : 0);
    }
    std::sort(expected.begin(), expected.end());
    cluster::floor_and_sort(row, now, scratch);
    ASSERT_EQ(row.times.size(), n);
    ASSERT_EQ(row.ids.size(), with_ids ? n : 0);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(row.times[i], expected[i].first) << "round " << round << " at " << i;
      if (with_ids) {
        ASSERT_EQ(row.ids[i], expected[i].second) << "round " << round << " at " << i;
      }
    }
  }
  cluster::AvailabilityRow bad{{1.0, 2.0}, {0}};
  EXPECT_THROW(cluster::floor_and_sort(bad, 0.0, scratch), std::invalid_argument);
}

TEST(AvailabilityDelta, ColumnsTruncateDropFrontAndAppendKeepReplayExact) {
  // A chain of deltas recorded from forward application; every edit of the
  // columns must leave each remaining delta replaying its original step.
  // Rows without ids must keep an empty id column through every edit.
  for (const bool with_ids : {false, true}) {
    TestRng rng(with_ids ? 23 : 29);
    constexpr std::size_t kNodes = 40;
    constexpr std::size_t kSteps = 12;
    cluster::AvailabilityRow scratch;
    std::vector<cluster::AvailabilityRow> rows{random_row(rng, kNodes, with_ids, true)};
    cluster::DeltaColumns deltas;
    for (std::size_t step = 0; step < kSteps; ++step) {
      cluster::AvailabilityRow row = rows.back();
      const std::size_t k = 1 + rng.index(8);
      std::vector<cluster::Time> releases(k);
      for (auto& t : releases) {
        t = row.times[k - 1] + std::floor(rng.uniform(1.0, 300.0) / 50.0);
      }
      std::sort(releases.begin(), releases.end());
      std::vector<cluster::NodeId> release_ids;
      if (with_ids) {
        release_ids.assign(row.ids.begin(),
                           row.ids.begin() + static_cast<std::ptrdiff_t>(k));
      }
      cluster::apply_releases(row, releases, release_ids, scratch);
      deltas.push(scratch);
      rows.push_back(row);
    }
    const auto replay_from = [&](const cluster::DeltaColumns& columns, std::size_t base,
                                 std::size_t first) {
      // Replays every delta of `columns` onto rows[base]; delta i must
      // reproduce rows[first + i + 1].
      cluster::AvailabilityRow row = rows[base];
      for (std::size_t r = 0; r < columns.end.size(); ++r) {
        columns.replay(r, row);
        ASSERT_EQ(row.times, rows[first + r + 1].times) << "delta " << r;
        ASSERT_EQ(row.ids, rows[first + r + 1].ids) << "delta " << r;
      }
    };
    replay_from(deltas, 0, 0);

    // Deltas 5.. rebuilt by hand as a second column set.
    cluster::DeltaColumns tail;
    for (std::size_t r = 5; r < kSteps; ++r) {
      const auto from = static_cast<std::ptrdiff_t>(deltas.start(r));
      const auto to = static_cast<std::ptrdiff_t>(deltas.end[r]);
      tail.end.push_back(tail.times.size() + deltas.end[r] - deltas.start(r));
      tail.times.insert(tail.times.end(), deltas.times.begin() + from,
                        deltas.times.begin() + to);
      if (with_ids) {
        tail.ids.insert(tail.ids.end(), deltas.ids.begin() + from, deltas.ids.begin() + to);
      }
    }
    cluster::DeltaColumns head = deltas;
    head.truncate(5);
    ASSERT_EQ(head.end.size(), 5u);
    ASSERT_EQ(head.times.size(), deltas.start(5));
    ASSERT_EQ(head.ids.size(), with_ids ? deltas.start(5) : 0);
    replay_from(head, 0, 0);
    head.append(tail);
    ASSERT_EQ(head.end, deltas.end);
    ASSERT_EQ(head.times, deltas.times);
    ASSERT_EQ(head.ids, deltas.ids);

    cluster::DeltaColumns dropped = deltas;
    dropped.drop_front(5);
    ASSERT_EQ(dropped.end.size(), kSteps - 5);
    ASSERT_EQ(dropped.ids.size(), with_ids ? dropped.times.size() : 0);
    replay_from(dropped, 5, 5);
    dropped.drop_front(0);
    dropped.truncate(dropped.end.size());
    replay_from(dropped, 5, 5);
    dropped.truncate(0);
    EXPECT_TRUE(dropped.end.empty() && dropped.times.empty() && dropped.ids.empty());
  }
}

// --- N=512 session property runs -------------------------------------------

workload::WorkloadParams big_cluster_params(std::uint64_t seed, double load,
                                            double dc_ratio) {
  workload::WorkloadParams params;
  params.cluster = {.node_count = 512, .cms = 1.0, .cps = 100.0};
  params.system_load = load;  // >> 1: only a fraction of arrivals fit, queues deepen
  params.dc_ratio = dc_ratio;  // loose deadlines build the deep queues
  params.total_time = 6000.0;
  params.seed = seed;
  return params;
}

/// Incremental (cross-check armed: throws on any divergence) vs the full
/// stateless test, every committed reservation bit for bit. Returns the
/// incremental run's metrics.
sim::SimMetrics expect_identical_schedules(const std::string& algorithm,
                                           const workload::WorkloadParams& params,
                                           const std::string& profile_key) {
  const auto tasks = workload::generate_workload(params);

  sim::ScheduleLog incremental_log;
  sim::SimulatorConfig incremental_config;
  incremental_config.params = params.cluster;
  if (!profile_key.empty()) {
    incremental_config.params.speed_profile = std::make_shared<const SpeedProfile>(
        cluster::parse_speed_profile(profile_key, params.cluster.node_count,
                                     params.cluster.cps));
    EXPECT_TRUE(incremental_config.params.heterogeneous());
  }
  incremental_config.incremental_admission = true;
  incremental_config.cross_check_admission = true;
  incremental_config.schedule_log = &incremental_log;

  sim::ScheduleLog full_log;
  sim::SimulatorConfig full_config = incremental_config;
  full_config.incremental_admission = false;
  full_config.cross_check_admission = false;
  full_config.schedule_log = &full_log;

  const sim::SimMetrics inc =
      sim::simulate(incremental_config, algorithm, tasks, params.total_time);
  const sim::SimMetrics full =
      sim::simulate(full_config, algorithm, tasks, params.total_time);

  EXPECT_EQ(inc.arrivals, full.arrivals);
  EXPECT_EQ(inc.accepted, full.accepted) << algorithm;
  EXPECT_EQ(inc.rejected, full.rejected) << algorithm;
  EXPECT_EQ(inc.reject_reasons, full.reject_reasons);
  EXPECT_EQ(inc.theorem4_violations, full.theorem4_violations);
  EXPECT_EQ(inc.deadline_misses, full.deadline_misses);
  EXPECT_EQ(inc.response_time.mean(), full.response_time.mean());
  EXPECT_EQ(inc.busy_time, full.busy_time);

  EXPECT_EQ(incremental_log.size(), full_log.size()) << algorithm;
  const std::size_t common = std::min(incremental_log.size(), full_log.size());
  for (std::size_t i = 0; i < common; ++i) {
    const sim::ScheduleEntry& a = incremental_log.entries()[i];
    const sim::ScheduleEntry& b = full_log.entries()[i];
    const bool same = a.task == b.task && a.node == b.node && a.start == b.start &&
                      a.end == b.end && a.alpha == b.alpha;
    if (!same) {
      ADD_FAILURE() << algorithm << " entry " << i << " differs";
      break;
    }
  }
  return inc;
}

/// (algorithm, speed-profile key; empty = homogeneous).
class DeltaSession
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {};

TEST_P(DeltaSession, BitIdenticalToDenseFigure2AtN512) {
  const auto& [algorithm, profile] = GetParam();
  if (algorithm.find("-BF") != std::string::npos) {
    // Calendar rules route through the full test (no delta session); they
    // are in the matrix to prove that routing stays bit-identical, not to
    // stress it - and the het backfill scan is quadratic in the queue, so a
    // load-10 burst would dominate the whole suite's runtime.
    expect_identical_schedules(algorithm, big_cluster_params(1, 5.0, 8.0), profile);
    return;
  }
  expect_identical_schedules(algorithm, big_cluster_params(1, 10.0, 25.0), profile);
  expect_identical_schedules(algorithm, big_cluster_params(20070227, 5.0, 8.0), profile);
}

TEST_P(DeltaSession, ShallowQueueBitIdenticalToStatelessTest) {
  // The trace-replay regime, shaped like the replay_large benchmark: load 4
  // with deadlines of one mean minimum execution time (DCRatio 1) on 4096
  // nodes, so about a quarter of the arrivals are rejected and the waiting
  // queue is nearly always empty. Almost every arrival rebuilds the session
  // and plans the new task alone, straight off the live index view: the
  // prefix scans read a few hundred of the 4096 positions, whole-row rules
  // (OPR-AN) fill the view, and no later call plans from the last plan's
  // releases.
  const auto& [algorithm, profile] = GetParam();
  workload::WorkloadParams params = big_cluster_params(3, 4.0, 1.0);
  params.total_time = 15000.0;  // ~270 arrivals
  if (algorithm.find("-BF") != std::string::npos) {
    // Calendar rules route through the full test, as in the deep case; at
    // 512 nodes the het backfill scan stays affordable.
    expect_identical_schedules(algorithm, params, profile);
    return;
  }
  params.cluster.node_count = 4096;
  const obs::Registry& registry = obs::Registry::global();
  const std::uint64_t replays_before =
      registry.counter_value("rtdls_admission_delta_replays_total");
  const sim::SimMetrics inc = expect_identical_schedules(algorithm, params, profile);
  const std::uint64_t replays =
      registry.counter_value("rtdls_admission_delta_replays_total") - replays_before;
  EXPECT_LT(inc.queue_length.mean(), 0.25);

  // With the queue empty at every arrival, nothing is ever appended to a
  // reused session: no delta is replayed, and a rule whose plans read a
  // prefix never leaves a dense row in the session - only the O(k) deltas
  // (a dense row would be 4096 positions of time, and id).
  const bool prefix_scan = algorithm.find("-DLT") != std::string::npos ||
                           algorithm.find("-MR") != std::string::npos ||
                           algorithm.find("-OPR-MN") != std::string::npos;
  if (algorithm.find("-DLT") != std::string::npos) {
    EXPECT_EQ(inc.queue_length.max(), 0.0);
  }
  if (inc.queue_length.max() == 0.0) {
    EXPECT_EQ(replays, 0u);
    const std::size_t dense_row =
        4096 * (sizeof(cluster::Time) + (profile.empty() ? 0 : sizeof(cluster::NodeId)));
    if (prefix_scan) {
      EXPECT_GT(inc.admission_peak_bytes, 0u);
      EXPECT_LT(inc.admission_peak_bytes, dense_row);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    PolicyByRule, DeltaSession,
    ::testing::Combine(::testing::Values("EDF-DLT", "FIFO-DLT", "EDF-MR2", "FIFO-MR2",
                                         "EDF-OPR-MN", "FIFO-OPR-MN", "EDF-OPR-AN",
                                         "FIFO-OPR-AN", "EDF-UserSplit", "FIFO-UserSplit",
                                         "EDF-OPR-MN-BF", "FIFO-OPR-MN-BF"),
                       ::testing::Values("", "lognormal:0.5,3")),
    [](const ::testing::TestParamInfo<std::tuple<std::string, std::string>>& info) {
      std::string name = std::get<0>(info.param) +
                         (std::get<1>(info.param).empty() ? "_hom" : "_het");
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(DeltaSession, PeakStateBytesDropAtLeastFiveFoldVsDenseRows) {
  // The acceptance number of the row-diff refactor: a deep-queue burst at
  // N=512 must hold at least 5x less availability state than the historical
  // dense rows (it is typically far more; the bound is the guarantee).
  const workload::WorkloadParams params = big_cluster_params(7, 10.0, 25.0);
  const auto tasks = workload::generate_workload(params);
  sim::SimulatorConfig config;
  config.params = params.cluster;
  const sim::SimMetrics metrics = sim::simulate(config, "EDF-DLT", tasks, params.total_time);

  ASSERT_GT(metrics.admission_peak_bytes, 0u);
  ASSERT_GT(metrics.admission_peak_dense_bytes, 0u);
  EXPECT_GE(metrics.admission_peak_dense_bytes, 5 * metrics.admission_peak_bytes)
      << "dense " << metrics.admission_peak_dense_bytes << " vs sparse "
      << metrics.admission_peak_bytes;

  // Het sessions mirror an id column; the drop must hold there too.
  sim::SimulatorConfig het_config = config;
  het_config.params.speed_profile = std::make_shared<const SpeedProfile>(
      cluster::parse_speed_profile("lognormal:0.4,7", 512, 100.0));
  const sim::SimMetrics het =
      sim::simulate(het_config, "EDF-DLT", tasks, params.total_time);
  ASSERT_GT(het.admission_peak_bytes, 0u);
  EXPECT_GE(het.admission_peak_dense_bytes, 5 * het.admission_peak_bytes);
}

// --- the session's reuse check ---------------------------------------------

/// A cross-check-armed EDF-DLT session over 16 nodes (hom, or the het
/// profile `profile`) driven the way the simulator drives it: admit() at a
/// `now`, the waiting queue updated from each accepted outcome, and a front
/// commit booked through commit_plan() and reported with on_commit().
struct SessionDriver {
  explicit SessionDriver(const std::string& profile)
      : params(cluster_params(profile)),
        cluster(params),
        algorithm(sched::make_algorithm("EDF-DLT")),
        controller(algorithm.policy, algorithm.rule.get()) {
    controller.set_cross_check(true);
  }

  static cluster::ClusterParams cluster_params(const std::string& profile) {
    cluster::ClusterParams params{.node_count = 16, .cms = 1.0, .cps = 100.0};
    if (!profile.empty()) {
      params.speed_profile = std::make_shared<const SpeedProfile>(
          cluster::parse_speed_profile(profile, params.node_count, params.cps));
    }
    return params;
  }

  /// Admits a task of 10 data units (one node of 16 meets the deadline)
  /// arriving at `now`.
  bool admit(cluster::TaskId id, cluster::Time now, cluster::Time rel_deadline) {
    workload::Task& task = tasks.emplace_back();
    task.id = id;
    task.spec.arrival = now;
    task.spec.sigma = 10.0;
    task.spec.rel_deadline = rel_deadline;
    const sched::AdmissionOutcome outcome =
        controller.admit(task, waiting, params, cluster, nullptr, now, /*incremental=*/true);
    if (!outcome.accepted) return false;
    waiting.resize(outcome.reused_prefix);
    plans.resize(outcome.reused_prefix);
    for (const sched::ScheduledTask& scheduled : outcome.schedule) {
      waiting.push_back(scheduled.task);
      plans.push_back(scheduled.plan);
    }
    return true;
  }

  void commit_front(cluster::Time now) {
    std::vector<cluster::NodeId> ids;
    sched::commit_plan(plans.front(), now, cluster, nullptr, ids);
    controller.on_commit(waiting.front(), plans.front(), cluster.version());
    waiting.erase(waiting.begin());
    plans.erase(plans.begin());
  }

  static std::uint64_t rebuilds() {
    return obs::Registry::global().counter_value("rtdls_admission_session_rebuilds_total");
  }

  cluster::ClusterParams params;
  cluster::Cluster cluster;
  sched::Algorithm algorithm;
  sched::AdmissionController controller;
  std::deque<workload::Task> tasks;  // stable addresses
  std::vector<const workload::Task*> waiting;
  std::vector<sched::TaskPlan> plans;
};

TEST(DeltaSession, FrontCommitAtTheSameInstantKeepsTheSession) {
  // Row head_ stands for the live view at the last call's `now`. A front
  // commit at that same instant leaves it the live view even while idle
  // nodes read `now` in it, so a second admission at that instant reuses
  // the session; at a later `now` the idle nodes read later, and the
  // session rebuilds. Outcomes are the same either way (the cross-check is
  // armed), so only the rebuild count shows which branch ran.
  for (const std::string profile : {"", "lognormal:0.5,3"}) {
    SCOPED_TRACE(profile.empty() ? "hom" : "het");
    SessionDriver session(profile);
    ASSERT_TRUE(session.admit(1, 10.0, 5000.0));
    ASSERT_EQ(session.waiting.size(), 1u);
    session.commit_front(10.0);
    ASSERT_LT(session.cluster.earliest_release(), 10.0);  // idle nodes floor at 10

    const std::uint64_t before = SessionDriver::rebuilds();
    ASSERT_TRUE(session.admit(2, 10.0, 6000.0));
    EXPECT_EQ(SessionDriver::rebuilds(), before);

    ASSERT_LT(session.cluster.earliest_release(), 20.0);
    ASSERT_TRUE(session.admit(3, 20.0, 7000.0));
    EXPECT_EQ(SessionDriver::rebuilds(), before + 1);
  }
}

TEST(DeltaSession, EarlierNowRebuildsTheSession) {
  // A `now` before the last call's floors entries the session's rows hold
  // at the later instant: with every node busy until 17-20.75, a session
  // built at 20 holds 20 where the view at 15 reads 17. Admitting at 15
  // must rebuild rather than reuse the task planned at 20 (the armed
  // cross-check throws on the stale plan).
  for (const std::string profile : {"", "lognormal:0.5,3"}) {
    SCOPED_TRACE(profile.empty() ? "hom" : "het");
    SessionDriver session(profile);
    for (cluster::NodeId id = 0; id < 16; ++id) {
      session.cluster.commit(id, 100 + id, 0.0, 0.0, 17.0 + 0.25 * id);
    }
    ASSERT_TRUE(session.admit(1, 20.0, 3000.0));
    const std::uint64_t before = SessionDriver::rebuilds();
    EXPECT_NO_THROW(session.admit(2, 15.0, 4000.0));
    EXPECT_EQ(SessionDriver::rebuilds(), before + 1);
  }
}

// --- het resolver differential ---------------------------------------------

// The linear reference walk the capacity-jump scan replaced: hard checks
// and the work-conservation prune position by position, a partition build
// wherever the prune passes. Kept verbatim (same epsilons, same evaluation
// order) as the resolver's behavioral specification.
constexpr double kDeadlineEps = 1e-9;

dlt::Infeasibility reference_hard_reject(double sigma, double cms, cluster::Time deadline,
                                         cluster::Time rn) {
  const cluster::Time slack = deadline - rn;
  if (slack <= 0.0) return dlt::Infeasibility::kDeadlinePassed;
  if (sigma * cms >= slack) return dlt::Infeasibility::kTransmissionTooLong;
  return dlt::Infeasibility::kNone;
}

struct ReferenceOutcome {
  dlt::Infeasibility reason = dlt::Infeasibility::kNone;
  std::size_t nodes = 0;
  cluster::Time est = 0.0;
};

ReferenceOutcome reference_dlt_scan(const cluster::ClusterParams& params, double sigma,
                                    cluster::Time deadline,
                                    const std::vector<cluster::Time>& free_times,
                                    const std::vector<cluster::NodeId>& ids) {
  std::vector<double> cps(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) cps[i] = params.node_cps(ids[i]);
  dlt::HetPartition partition;
  ReferenceOutcome out;
  double capacity = 0.0;
  for (std::size_t n = 1; n <= free_times.size(); ++n) {
    const cluster::Time rn = free_times[n - 1];
    const dlt::Infeasibility hard = reference_hard_reject(sigma, params.cms, deadline, rn);
    if (hard != dlt::Infeasibility::kNone) {
      out.reason = hard;
      return out;
    }
    capacity += (deadline - rn) / cps[n - 1];
    if (capacity < sigma) continue;
    dlt::build_het_partition_into(params, sigma, free_times, cps, n, partition);
    const cluster::Time est = partition.estimated_completion();
    if (est > deadline + kDeadlineEps) continue;
    out.nodes = n;
    out.est = est;
    return out;
  }
  out.reason = dlt::Infeasibility::kNeedsMoreNodes;
  return out;
}

ReferenceOutcome reference_opr_scan(const cluster::ClusterParams& params, double sigma,
                                    cluster::Time deadline,
                                    const std::vector<cluster::Time>& free_times,
                                    const std::vector<cluster::NodeId>& ids) {
  std::vector<double> cps(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) cps[i] = params.node_cps(ids[i]);
  std::vector<double> alpha;
  ReferenceOutcome out;
  double capacity = 0.0;
  for (std::size_t n = 1; n <= free_times.size(); ++n) {
    const cluster::Time rn = free_times[n - 1];
    const dlt::Infeasibility hard = reference_hard_reject(sigma, params.cms, deadline, rn);
    if (hard != dlt::Infeasibility::kNone) {
      out.reason = hard;
      return out;
    }
    capacity += (deadline - rn) / cps[n - 1];
    if (capacity < sigma) continue;
    dlt::general_het_alpha_into(params.cms, cps, n, alpha);
    const double exec = sigma * params.cms + alpha.back() * sigma * cps[n - 1];
    const cluster::Time est = rn + exec;
    if (est > deadline + kDeadlineEps) continue;
    out.nodes = n;
    out.est = est;
    return out;
  }
  out.reason = dlt::Infeasibility::kNeedsMoreNodes;
  return out;
}

TEST(HetResolverJump, MatchesLinearScanOnAdversarialStates) {
  const std::size_t n = 512;
  cluster::ClusterParams params{.node_count = n, .cms = 1.0, .cps = 100.0};
  params.speed_profile = std::make_shared<const SpeedProfile>(
      cluster::parse_speed_profile("lognormal:0.6,5", n, 100.0));
  ASSERT_TRUE(params.heterogeneous());
  // With cms = 1 an oversized load always trips the transmission hard
  // reject before it can exhaust capacity; a cheap channel reaches the
  // kNeedsMoreNodes family (capacity exhausted, transmission fine).
  cluster::ClusterParams cheap_channel = params;
  cheap_channel.cms = 0.01;

  TestRng rng(20070227);
  sched::het::PlannerScratch scratch;
  std::size_t accepts = 0;
  std::size_t hard_rejects = 0;
  std::size_t capacity_rejects = 0;

  for (int round = 0; round < 400; ++round) {
    // Availability states with heavy tails so the capacity crossing lands
    // deep in the prefix and hard rejects trigger mid-scan.
    std::vector<cluster::Time> free_times(n);
    const double spread = rng.uniform(10.0, 50000.0);
    for (auto& t : free_times) {
      t = rng.uniform(0.0, spread);
      if (rng.index(8) == 0) t *= 4.0;  // stragglers
    }
    std::vector<std::pair<cluster::Time, cluster::NodeId>> pairs(n);
    for (std::size_t i = 0; i < n; ++i) {
      pairs[i] = {free_times[i], static_cast<cluster::NodeId>(i)};
    }
    std::sort(pairs.begin(), pairs.end());
    std::vector<cluster::NodeId> ids(n);
    for (std::size_t i = 0; i < n; ++i) {
      free_times[i] = pairs[i].first;
      ids[i] = pairs[i].second;
    }

    workload::Task task;
    task.id = static_cast<cluster::TaskId>(round);
    double sigma = rng.uniform(1.0, 4000.0);
    // Deadlines from hopeless to generous relative to the state.
    double deadline = rng.uniform(0.5, 2.5) * spread;
    cluster::ClusterParams round_params = (round % 3 == 0) ? cheap_channel : params;
    if (round % 5 == 0) {
      // Engineered capacity exhaustion: a deadline clear of every release
      // (no hard reject anywhere) but a load 1.5x the whole cluster's
      // work-conservation capacity, with a channel cheap enough that the
      // transmission check stays clear too - the kNeedsMoreNodes family the
      // random geometry almost never reaches.
      deadline = 4.2 * spread;  // releases top out at 4x spread
      double capacity = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        capacity += (deadline - free_times[i]) / params.node_cps(ids[i]);
      }
      sigma = 1.5 * capacity;
      round_params.cms = 0.02 * spread / sigma;  // sigma*cms << min slack
    }
    task.spec = {0.0, sigma, deadline};

    const cluster::AvailabilityView row({free_times, ids});
    sched::PlanRequest request;
    request.task = &task;
    request.params = round_params;
    request.row = &row;
    request.now = 0.0;

    const ReferenceOutcome ref_dlt =
        reference_dlt_scan(round_params, sigma, deadline, free_times, ids);
    const sched::PlanResult got_dlt = sched::het::plan_dlt_iit(request, scratch);
    ASSERT_EQ(got_dlt.reason, ref_dlt.reason) << "round " << round;
    if (ref_dlt.reason == dlt::Infeasibility::kNone) {
      ASSERT_EQ(got_dlt.plan.nodes, ref_dlt.nodes) << "round " << round;
      ASSERT_EQ(got_dlt.plan.est_completion, ref_dlt.est) << "round " << round;
      ++accepts;
    } else if (ref_dlt.reason == dlt::Infeasibility::kNeedsMoreNodes) {
      ++capacity_rejects;
    } else {
      ++hard_rejects;
    }

    const ReferenceOutcome ref_opr =
        reference_opr_scan(round_params, sigma, deadline, free_times, ids);
    const sched::PlanResult got_opr = sched::het::plan_opr_mn(request, scratch);
    ASSERT_EQ(got_opr.reason, ref_opr.reason) << "round " << round;
    if (ref_opr.reason == dlt::Infeasibility::kNone) {
      ASSERT_EQ(got_opr.plan.nodes, ref_opr.nodes) << "round " << round;
      ASSERT_EQ(got_opr.plan.est_completion, ref_opr.est) << "round " << round;
    }
  }
  // The sweep must actually exercise all three outcome families.
  EXPECT_GE(accepts, 20u);
  EXPECT_GE(hard_rejects, 20u);
  EXPECT_GE(capacity_rejects, 5u);
}

TEST(HetResolverJump, RecoversExactRejectReasonAcrossTheSkippedRange) {
  // Hand-built state: the capacity jump from position 1 leaps far past the
  // first hard-rejecting position; the binary search must surface the
  // reason at the FIRST failing position (kTransmissionTooLong fires while
  // slack is still positive, before kDeadlinePassed does).
  const std::size_t n = 64;
  cluster::ClusterParams params{.node_count = n, .cms = 1.0, .cps = 100.0};
  params.speed_profile =
      std::make_shared<const SpeedProfile>(SpeedProfile::uniform(n, 80.0, 120.0, 3));
  ASSERT_TRUE(params.heterogeneous());

  std::vector<cluster::Time> free_times(n);
  std::vector<cluster::NodeId> ids(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Slack shrinks along the prefix: transmission-too-long from ~half way,
    // deadline passed near the end.
    free_times[i] = static_cast<double>(i) * 2.0;
    ids[i] = static_cast<cluster::NodeId>(i);
  }
  const double deadline = 70.0;   // r_i >= 70 from i = 35: kDeadlinePassed
  const double sigma = 20.0;      // sigma*cms = 20 >= slack from r_i >= 50: TTL first

  workload::Task task;
  task.id = 1;
  task.spec = {0.0, sigma, deadline};
  const cluster::AvailabilityView row({free_times, ids});
  sched::PlanRequest request;
  request.task = &task;
  request.params = params;
  request.row = &row;
  request.now = 0.0;

  sched::het::PlannerScratch scratch;
  const ReferenceOutcome ref = reference_dlt_scan(params, sigma, deadline, free_times, ids);
  const sched::PlanResult got = sched::het::plan_dlt_iit(request, scratch);
  ASSERT_EQ(got.reason, ref.reason);
  ASSERT_EQ(got.reason, dlt::Infeasibility::kTransmissionTooLong);
}

}  // namespace
}  // namespace rtdls
