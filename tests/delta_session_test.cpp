// Tests for the sparse plan-delta admission session and the het resolver's
// capacity-jump scan.
//
// Three pillars:
//  1. Delta replay: replaying the sorted releases apply_releases* leaves in
//     its scratch (the flat delta the session records) onto a copy of the
//     pre-state reproduces the post-state bit for bit (homogeneous and het
//     rows) - the invariant the checkpointed session stands on.
//  2. N=512 randomized property runs (EDF/FIFO x DLT/MR2/OPR-MN-BF, het and
//     homogeneous) with the controller cross-check armed: the delta session
//     must stay bitwise schedule-identical to the full Figure-2 test, and
//     its peak availability-state footprint must undercut the historical
//     dense one-row-per-task representation by >= 5x.
//  3. Het resolver differential: the galloped capacity-jump scan must return
//     the exact accept position / reject reason of the linear reference walk
//     on adversarial availability states (deep crossings, mid-scan hard
//     rejects of both flavors, whole-cluster infeasibility).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "cluster/availability_delta.hpp"
#include "cluster/speed_profile.hpp"
#include "dlt/het_model.hpp"
#include "sched/het_planner.hpp"
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

TEST(AvailabilityDelta, ReplayReproducesForwardApplicationBitwise) {
  TestRng rng(7);
  std::vector<cluster::Time> merge_scratch;
  for (int round = 0; round < 50; ++round) {
    const std::size_t n = 1 + rng.index(64);
    const std::size_t k = 1 + rng.index(n);
    std::vector<cluster::Time> state(n);
    for (auto& t : state) t = rng.uniform(0.0, 1000.0);
    std::sort(state.begin(), state.end());
    std::vector<cluster::Time> releases(k);
    for (auto& t : releases) t = rng.uniform(0.0, 2000.0);
    std::sort(releases.begin(), releases.end());

    const std::vector<cluster::Time> before = state;
    cluster::apply_releases(state, releases, merge_scratch);
    ASSERT_EQ(merge_scratch.size(), k);
    ASSERT_TRUE(std::is_sorted(merge_scratch.begin(), merge_scratch.end()));
    ASSERT_TRUE(std::is_sorted(state.begin(), state.end()));

    std::vector<cluster::Time> replayed = before;
    cluster::apply_delta(replayed, merge_scratch.data(), k);
    ASSERT_EQ(replayed, state) << "round " << round;
  }
}

TEST(AvailabilityDelta, HetReplayKeepsStrictTimeIdOrder) {
  TestRng rng(11);
  std::vector<std::pair<cluster::Time, cluster::NodeId>> pair_scratch;
  for (int round = 0; round < 50; ++round) {
    const std::size_t n = 1 + rng.index(64);
    const std::size_t k = 1 + rng.index(n);
    // Strict (time, id) ordered row.
    std::vector<std::pair<cluster::Time, cluster::NodeId>> row(n);
    for (std::size_t i = 0; i < n; ++i) {
      row[i] = {rng.uniform(0.0, 1000.0), static_cast<cluster::NodeId>(i)};
    }
    std::sort(row.begin(), row.end());
    std::vector<cluster::Time> state(n);
    std::vector<cluster::NodeId> ids(n);
    for (std::size_t i = 0; i < n; ++i) {
      state[i] = row[i].first;
      ids[i] = row[i].second;
    }
    // Slot-aligned releases for the consumed prefix (not pre-sorted, like a
    // het multi-round plan's per-slot completions).
    std::vector<cluster::Time> releases(k);
    std::vector<cluster::NodeId> release_ids(ids.begin(), ids.begin() + k);
    for (auto& t : releases) t = rng.uniform(500.0, 2000.0);

    const std::vector<cluster::Time> before_t = state;
    const std::vector<cluster::NodeId> before_i = ids;
    cluster::apply_releases_het(state, ids, releases, release_ids, pair_scratch);
    // Split the sorted pairs into the flat (time, id) columns the admission
    // session records.
    ASSERT_EQ(pair_scratch.size(), k);
    std::vector<cluster::Time> delta_t;
    std::vector<cluster::NodeId> delta_i;
    for (const auto& [t, id] : pair_scratch) {
      delta_t.push_back(t);
      delta_i.push_back(id);
    }

    std::vector<cluster::Time> replay_t = before_t;
    std::vector<cluster::NodeId> replay_i = before_i;
    cluster::apply_delta_het(replay_t, replay_i, delta_t.data(), delta_i.data(), k);
    ASSERT_EQ(replay_t, state) << "round " << round;
    ASSERT_EQ(replay_i, ids) << "round " << round;
    for (std::size_t i = 1; i < n; ++i) {
      ASSERT_TRUE(state[i - 1] < state[i] ||
                  (state[i - 1] == state[i] && ids[i - 1] < ids[i]))
          << "round " << round << " position " << i;
    }
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
/// stateless test, every committed reservation bit for bit.
void expect_identical_schedules(const std::string& algorithm,
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
    ASSERT_TRUE(incremental_config.params.heterogeneous());
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

  ASSERT_EQ(inc.arrivals, full.arrivals);
  ASSERT_EQ(inc.accepted, full.accepted) << algorithm;
  ASSERT_EQ(inc.rejected, full.rejected) << algorithm;
  ASSERT_EQ(inc.reject_reasons, full.reject_reasons);
  ASSERT_EQ(inc.theorem4_violations, full.theorem4_violations);
  ASSERT_EQ(inc.deadline_misses, full.deadline_misses);
  EXPECT_EQ(inc.response_time.mean(), full.response_time.mean());
  EXPECT_EQ(inc.busy_time, full.busy_time);

  ASSERT_EQ(incremental_log.size(), full_log.size()) << algorithm;
  for (std::size_t i = 0; i < incremental_log.size(); ++i) {
    const sim::ScheduleEntry& a = incremental_log.entries()[i];
    const sim::ScheduleEntry& b = full_log.entries()[i];
    ASSERT_EQ(a.task, b.task) << algorithm << " entry " << i;
    ASSERT_EQ(a.node, b.node) << algorithm << " entry " << i;
    ASSERT_EQ(a.start, b.start) << algorithm << " entry " << i;
    ASSERT_EQ(a.end, b.end) << algorithm << " entry " << i;
    ASSERT_EQ(a.alpha, b.alpha) << algorithm << " entry " << i;
  }
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

INSTANTIATE_TEST_SUITE_P(
    PolicyByRule, DeltaSession,
    ::testing::Combine(::testing::Values("EDF-DLT", "FIFO-DLT", "EDF-MR2", "FIFO-MR2",
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

    sched::PlanRequest request;
    request.task = &task;
    request.params = round_params;
    request.free_times = &free_times;
    request.node_ids = &ids;
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
  sched::PlanRequest request;
  request.task = &task;
  request.params = params;
  request.free_times = &free_times;
  request.node_ids = &ids;
  request.now = 0.0;

  sched::het::PlannerScratch scratch;
  const ReferenceOutcome ref = reference_dlt_scan(params, sigma, deadline, free_times, ids);
  const sched::PlanResult got = sched::het::plan_dlt_iit(request, scratch);
  ASSERT_EQ(got.reason, ref.reason);
  ASSERT_EQ(got.reason, dlt::Infeasibility::kTransmissionTooLong);
}

}  // namespace
}  // namespace rtdls
