// Heterogeneous-cluster subsystem tests.
//
// The two pillars:
//  1. Homogeneous equivalence: attaching an all-equal SpeedProfile (values
//     == the scalar Cps) must reproduce the seed homogeneous schedules
//     bitwise - counters, reservations, and rollouts - with the admission
//     cross-check armed. This is the guarantee that the het lift cannot
//     perturb every existing figure.
//  2. Genuine heterogeneity: the generalized Eq.-1 construction keeps the
//     Theorem-4 bound (est >= actual per node), the incremental admission
//     session stays bit-identical to the full Figure-2 test (cross-check
//     throws on any divergence), and every algorithm upholds the safety
//     invariants on heterogeneous hardware.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <tuple>

#include "cluster/speed_profile.hpp"
#include "dlt/het_model.hpp"
#include "obs/metrics.hpp"
#include "sim/exec_model.hpp"
#include "sim/schedule_log.hpp"
#include "sim/simulator.hpp"
#include "workload/generator.hpp"

namespace rtdls {
namespace {

using cluster::SpeedProfile;

void expect_entries_bitwise(const sim::ScheduleLog& a, const sim::ScheduleLog& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const sim::ScheduleEntry& x = a.entries()[i];
    const sim::ScheduleEntry& y = b.entries()[i];
    ASSERT_EQ(x.task, y.task) << "entry " << i;
    ASSERT_EQ(x.node, y.node) << "entry " << i;
    ASSERT_EQ(x.usable_from, y.usable_from) << "entry " << i;
    ASSERT_EQ(x.start, y.start) << "entry " << i;
    ASSERT_EQ(x.end, y.end) << "entry " << i;
    ASSERT_EQ(x.alpha, y.alpha) << "entry " << i;
    ASSERT_EQ(x.cps, y.cps) << "entry " << i;
    ASSERT_EQ(x.actual_finish, y.actual_finish) << "entry " << i;
  }
}

/// All-equal profile == scalar Cps => bit-identical schedules and metrics.
/// Parameterized over policy x rule at N=256 (large enough that ordering or
/// tie-break drift would surface immediately).
class HomogeneousEquivalence : public ::testing::TestWithParam<std::string> {};

TEST_P(HomogeneousEquivalence, AllEqualProfileReproducesSeedSchedulesBitwise) {
  const std::string& algorithm = GetParam();
  workload::WorkloadParams params;
  params.cluster = {.node_count = 256, .cms = 1.0, .cps = 100.0};
  params.system_load = 0.7;
  params.dc_ratio = 8.0;  // deep waiting queues: the incremental hot path
  params.total_time = 20000.0;
  params.seed = 4242;
  const auto tasks = workload::generate_workload(params);

  sim::ScheduleLog reference_log;
  sim::SimulatorConfig reference;
  reference.params = params.cluster;
  reference.cross_check_admission = true;
  reference.schedule_log = &reference_log;
  const sim::SimMetrics expect =
      sim::simulate(reference, algorithm, tasks, params.total_time);

  sim::ScheduleLog profiled_log;
  sim::SimulatorConfig profiled = reference;
  profiled.params.speed_profile =
      std::make_shared<const SpeedProfile>(SpeedProfile::homogeneous(256, 100.0));
  ASSERT_FALSE(profiled.params.heterogeneous());  // the fast-path guarantee
  profiled.schedule_log = &profiled_log;
  const sim::SimMetrics got = sim::simulate(profiled, algorithm, tasks, params.total_time);

  ASSERT_EQ(got.arrivals, expect.arrivals);
  ASSERT_EQ(got.accepted, expect.accepted);
  ASSERT_EQ(got.rejected, expect.rejected);
  ASSERT_EQ(got.reject_reasons, expect.reject_reasons);
  ASSERT_EQ(got.deadline_misses, expect.deadline_misses);
  ASSERT_EQ(got.theorem4_violations, expect.theorem4_violations);
  ASSERT_EQ(got.busy_time, expect.busy_time);
  ASSERT_EQ(got.idle_gap_time, expect.idle_gap_time);
  ASSERT_EQ(got.response_time.mean(), expect.response_time.mean());
  ASSERT_EQ(got.deadline_slack.min(), expect.deadline_slack.min());
  expect_entries_bitwise(profiled_log, reference_log);
}

INSTANTIATE_TEST_SUITE_P(
    PolicyByRule, HomogeneousEquivalence,
    ::testing::Values("EDF-DLT", "FIFO-DLT", "EDF-MR2", "FIFO-MR2", "EDF-OPR-MN-BF",
                      "FIFO-OPR-MN-BF"),
    [](const ::testing::TestParamInfo<std::string>& param_info) {
      std::string name = param_info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

/// Every algorithm on genuinely heterogeneous hardware: safety invariants
/// hold and (for non-calendar rules) the incremental session is asserted
/// bit-identical to the full Figure-2 test on every arrival.
class HetAlgorithm
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {};

TEST_P(HetAlgorithm, SafetyInvariantsOnHeterogeneousHardware) {
  const auto& [name, profile_key] = GetParam();
  workload::WorkloadParams params;
  params.cluster = {.node_count = 32, .cms = 1.0, .cps = 100.0};
  params.system_load = 0.8;
  params.total_time = 150000.0;
  params.seed = 99;
  const auto tasks = workload::generate_workload(params);

  sim::SimulatorConfig config;
  config.params = params.cluster;
  config.params.speed_profile = std::make_shared<const SpeedProfile>(
      cluster::parse_speed_profile(profile_key, 32, 100.0));
  ASSERT_TRUE(config.params.heterogeneous());
  config.cross_check_admission = true;
  const sim::SimMetrics metrics = sim::simulate(config, name, tasks, params.total_time);

  ASSERT_EQ(metrics.accepted + metrics.rejected, metrics.arrivals);
  ASSERT_EQ(metrics.deadline_misses, 0u);
  ASSERT_EQ(metrics.theorem4_violations, 0u);  // the generalized Theorem 4
  if (metrics.accepted > 0) {
    ASSERT_GE(metrics.deadline_slack.min(), -1e-6);
    ASSERT_GT(metrics.utilization(), 0.0);
    ASSERT_LT(metrics.utilization(), 1.1);
    ASSERT_GE(metrics.nodes_per_task.min(), 1.0);
    ASSERT_LE(metrics.nodes_per_task.max(), 32.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Registry, HetAlgorithm,
    ::testing::Combine(::testing::Values("EDF-DLT", "FIFO-DLT", "EDF-DLT-Opt", "EDF-OPR-MN",
                                         "FIFO-OPR-MN", "EDF-OPR-AN", "EDF-UserSplit",
                                         "EDF-MR2", "EDF-MR4", "EDF-OPR-MN-BF"),
                       ::testing::Values("lognormal:0.5,3", "two_tier:40,160,0.5,1",
                                         "uniform:50,200,9")),
    [](const ::testing::TestParamInfo<std::tuple<std::string, std::string>>& param_info) {
      std::string name = std::get<0>(param_info.param) + "_" +
                         std::get<1>(param_info.param).substr(
                             0, std::get<1>(param_info.param).find(':'));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(HetSubsystem, ActualReleasePolicyStaysSafePerSlot) {
  // kActual hands back each node's own unused tail; under heterogeneity the
  // pairing must stay per-slot (order statistics would free a still-busy
  // slow node). The invariants catch any such premature release.
  workload::WorkloadParams params;
  params.cluster = {.node_count = 24, .cms = 1.0, .cps = 100.0};
  params.system_load = 0.9;
  params.total_time = 120000.0;
  params.seed = 1234;
  const auto tasks = workload::generate_workload(params);

  for (const char* name : {"EDF-DLT", "EDF-MR2", "EDF-UserSplit"}) {
    sim::SimulatorConfig config;
    config.params = params.cluster;
    config.params.speed_profile = std::make_shared<const SpeedProfile>(
        SpeedProfile::log_normal(24, 100.0, 0.6, 21));
    config.release_policy = sim::ReleasePolicy::kActual;
    config.cross_check_admission = true;
    const sim::SimMetrics metrics = sim::simulate(config, name, tasks, params.total_time);
    ASSERT_EQ(metrics.theorem4_violations, 0u) << name;
    ASSERT_EQ(metrics.deadline_misses, 0u) << name;
    ASSERT_EQ(metrics.accepted + metrics.rejected, metrics.arrivals) << name;
  }
}

TEST(HetSubsystem, GeneralizedPartitionUpholdsTheorem4Bound) {
  // Direct check of the generalized Eq.-1 construction: on random
  // (availability, speed) sets, the exact rollout at actual speeds finishes
  // by r_n + E_hat, and the per-node bounds dominate the rollout.
  const cluster::ClusterParams params{.node_count = 8, .cms = 2.0, .cps = 120.0};
  const std::vector<cluster::Time> available{0.0, 3.0, 3.0, 10.0, 25.0, 60.0, 61.0, 200.0};
  const SpeedProfile profile = SpeedProfile::uniform(8, 40.0, 400.0, 17);
  const double sigma = 50.0;

  for (std::size_t n = 1; n <= 8; ++n) {
    std::vector<double> cps(profile.values().begin(), profile.values().begin() + n);
    dlt::HetPartition partition;
    dlt::build_het_partition_into(params, sigma, available, profile.values(), n, partition);

    double alpha_sum = 0.0;
    for (double a : partition.alpha) alpha_sum += a;
    EXPECT_NEAR(alpha_sum, 1.0, 1e-12) << n;
    EXPECT_LE(partition.execution_time, partition.homogeneous_time + 1e-9) << n;  // Eq. 9

    // Roll the partition out exactly as the simulator would.
    sched::TaskPlan plan;
    plan.nodes = n;
    plan.available = partition.available;
    plan.reserve_from = partition.available;
    plan.alpha = partition.alpha;
    plan.node_cps = cps;
    const sim::ActualTimeline timeline = sim::roll_out(params, sigma, plan);
    const cluster::Time est = partition.estimated_completion();
    EXPECT_LE(timeline.task_completion(), est + 1e-9) << n;

    const auto bounds = dlt::theorem4_completion_bounds(params, sigma, partition, cps);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_LE(timeline.completion[i], bounds[i] + 1e-9) << n << ":" << i;
      EXPECT_LE(bounds[i], est + 1e-9) << n << ":" << i;
    }
  }
}

TEST(HetSubsystem, FasterProfileAdmitsNoFewerTasks) {
  // Sanity on the direction of the effect: halving every node's processing
  // cost (a uniformly faster cluster) cannot reject more of the same trace.
  workload::WorkloadParams params;
  params.cluster = {.node_count = 16, .cms = 1.0, .cps = 100.0};
  params.system_load = 1.0;
  params.total_time = 100000.0;
  params.seed = 5;
  const auto tasks = workload::generate_workload(params);

  sim::SimulatorConfig slow;
  slow.params = params.cluster;
  const sim::SimMetrics base = sim::simulate(slow, "EDF-DLT", tasks, params.total_time);

  sim::SimulatorConfig fast = slow;
  fast.params.speed_profile =
      std::make_shared<const SpeedProfile>(SpeedProfile::homogeneous(16, 50.0));
  ASSERT_TRUE(fast.params.heterogeneous());  // engages the het path
  const sim::SimMetrics quick = sim::simulate(fast, "EDF-DLT", tasks, params.total_time);
  EXPECT_LE(quick.rejected, base.rejected);
}

TEST(HetSubsystem, ScheduleLogRecordsPerNodeSpeedsAndFinishes) {
  workload::WorkloadParams params;
  params.cluster = {.node_count = 8, .cms = 1.0, .cps = 100.0};
  params.system_load = 0.6;
  params.total_time = 50000.0;
  params.seed = 77;
  const auto tasks = workload::generate_workload(params);

  sim::ScheduleLog log;
  sim::SimulatorConfig config;
  config.params = params.cluster;
  config.params.speed_profile = std::make_shared<const SpeedProfile>(
      SpeedProfile::two_tier(8, 50.0, 200.0, 0.5, 2));
  config.schedule_log = &log;
  sim::simulate(config, "EDF-DLT", tasks, params.total_time);

  ASSERT_GT(log.size(), 0u);
  for (const sim::ScheduleEntry& entry : log.entries()) {
    // The logged speed is the node's actual profile speed, and the actual
    // finish computed from it never exceeds the committed release.
    EXPECT_EQ(entry.cps, config.params.node_cps(entry.node));
    EXPECT_LE(entry.actual_finish, entry.end + 1e-6);
    EXPECT_GE(entry.actual_finish, entry.start);
  }
}

TEST(HetSubsystem, ResolverRulesReportPlannerCounters) {
  // Every rule that owns a het planner scratch reports its counters, so a
  // het run's resolver walks reach SimMetrics and the obs registry alike
  // (they used to read 0 for every rule but OPR-MN-BF).
  workload::WorkloadParams params;
  params.cluster = {.node_count = 64, .cms = 1.0, .cps = 100.0};
  params.system_load = 1.0;
  params.total_time = 20000.0;
  params.seed = 64;
  const auto tasks = workload::generate_workload(params);
  ASSERT_FALSE(tasks.empty());

  for (const char* name : {"EDF-DLT", "EDF-OPR-MN", "EDF-MR2"}) {
    sim::SimulatorConfig config;
    config.params = params.cluster;
    config.params.speed_profile = std::make_shared<const SpeedProfile>(
        SpeedProfile::log_normal(64, 100.0, 0.5, 7));
    const std::uint64_t walks_before =
        obs::Registry::global().counter_value("rtdls_planner_resolver_walks_total");
    const sim::SimMetrics metrics = sim::simulate(config, name, tasks, params.total_time);
    const std::uint64_t walks_after =
        obs::Registry::global().counter_value("rtdls_planner_resolver_walks_total");
    EXPECT_GT(metrics.planner_resolver_walks, 0u) << name;
    EXPECT_GE(metrics.planner_resolver_positions, metrics.planner_resolver_walks) << name;
    EXPECT_EQ(walks_after - walks_before, metrics.planner_resolver_walks) << name;
  }
}

}  // namespace
}  // namespace rtdls
