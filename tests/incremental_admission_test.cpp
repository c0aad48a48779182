// Property tests for the incremental admission session (sched/admission):
// on randomized workloads every queue the simulator's driver adopts must be
// BIT-IDENTICAL to the full Figure-2 re-plan (the armed cross-check), for
// both policies; calendar (backfilling) rules must take the full test; and
// the parallel sweep runner must be byte-identical to the serial one.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

#include "exp/runner.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"
#include "workload/generator.hpp"

namespace rtdls {
namespace {

workload::WorkloadParams random_params(std::uint64_t seed, double load, double dc_ratio) {
  workload::WorkloadParams params;
  params.cluster = {.node_count = 16, .cms = 1.0, .cps = 100.0};
  params.system_load = load;
  params.dc_ratio = dc_ratio;
  params.total_time = 120000.0;
  params.seed = seed;
  return params;
}

/// Runs `algorithm` over `tasks` with the driver's cross-check armed: every
/// arrival of a non-calendar rule holds the waiting queue the driver adopts
/// to the full Figure-2 test, bit for bit, and throws on any divergence.
/// Then the paper's two promises: no deadline miss, no Theorem-4 violation.
sim::SimMetrics expect_identical_schedules(const std::string& algorithm,
                                           const workload::WorkloadParams& params,
                                           sim::ReleasePolicy release_policy) {
  const auto tasks = workload::generate_workload(params);
  sim::SimulatorConfig config;
  config.params = params.cluster;
  config.release_policy = release_policy;
  config.cross_check_admission = true;
  const sim::SimMetrics metrics =
      sim::simulate(config, algorithm, tasks, params.total_time);

  EXPECT_EQ(metrics.arrivals, tasks.size()) << algorithm;
  EXPECT_EQ(metrics.accepted + metrics.rejected, metrics.arrivals) << algorithm;
  EXPECT_GT(metrics.accepted, 0u) << algorithm;
  EXPECT_EQ(metrics.theorem4_violations, 0u) << algorithm;
  EXPECT_EQ(metrics.deadline_misses, 0u) << algorithm;
  return metrics;
}

TEST(IncrementalAdmission, MatchesFullReplanAcrossRandomWorkloads) {
  // 2 policies x 2 rules x randomized (seed, load, DCRatio) cells. Loose
  // deadlines (high DCRatio) build the deep waiting queues that exercise
  // insertion mid-queue, policy-front commits, and rejected rebuilds.
  const char* algorithms[] = {"EDF-DLT", "FIFO-DLT", "EDF-OPR-MN", "FIFO-OPR-MN"};
  const std::uint64_t seeds[] = {1, 7, 20070227};
  const double loads[] = {0.4, 0.9, 1.2};
  const double dc_ratios[] = {2.0, 25.0};
  for (const char* algorithm : algorithms) {
    for (std::uint64_t seed : seeds) {
      for (double load : loads) {
        for (double dc : dc_ratios) {
          expect_identical_schedules(algorithm, random_params(seed, load, dc),
                                     sim::ReleasePolicy::kEstimate);
        }
      }
    }
  }
}

TEST(IncrementalAdmission, MatchesFullReplanUnderEarlyRelease) {
  // kActual releases mutate availability outside the admission session's
  // model; the session must detect it (version bump) and rebuild, never
  // diverge.
  for (const char* algorithm : {"EDF-DLT", "FIFO-DLT"}) {
    expect_identical_schedules(algorithm, random_params(3, 1.0, 20.0),
                               sim::ReleasePolicy::kActual);
  }
}

TEST(IncrementalAdmission, CalendarRulesTakeTheFullTestPath) {
  // Backfilling rules cannot use the incremental session (plans depend on
  // the whole reservation calendar): the driver routes them through the
  // full test, so no session is ever built or holds a byte.
  const obs::Registry& registry = obs::Registry::global();
  const std::uint64_t rebuilds_before =
      registry.counter_value("rtdls_admission_session_rebuilds_total");
  for (const auto& [algorithm, seed] :
       {std::pair{"EDF-OPR-MN-BF", 5}, std::pair{"FIFO-OPR-MN-BF", 9}}) {
    const sim::SimMetrics metrics = expect_identical_schedules(
        algorithm, random_params(seed, 0.8, 10.0), sim::ReleasePolicy::kEstimate);
    EXPECT_EQ(metrics.admission_peak_bytes, 0u) << algorithm;
  }
  EXPECT_EQ(registry.counter_value("rtdls_admission_session_rebuilds_total"),
            rebuilds_before);
}

TEST(IncrementalAdmission, SimulatorInstanceIsReusableAcrossRuns) {
  // run() must reset all per-run state in place: the same instance run
  // twice on the same trace gives bitwise-identical results, and a run on
  // a different trace in between must not leak state.
  const auto params_a = random_params(2, 1.0, 20.0);
  const auto params_b = random_params(4, 0.5, 2.0);
  const auto tasks_a = workload::generate_workload(params_a);
  const auto tasks_b = workload::generate_workload(params_b);

  sim::SimulatorConfig config;
  config.params = params_a.cluster;
  const sched::Algorithm algorithm = sched::make_algorithm("EDF-DLT");
  sim::ClusterSimulator simulator(config, algorithm);

  const sim::SimMetrics first = simulator.run(tasks_a, params_a.total_time);
  simulator.run(tasks_b, params_b.total_time);
  const sim::SimMetrics again = simulator.run(tasks_a, params_a.total_time);

  EXPECT_EQ(first.accepted, again.accepted);
  EXPECT_EQ(first.rejected, again.rejected);
  EXPECT_EQ(first.busy_time, again.busy_time);
  EXPECT_EQ(first.response_time.mean(), again.response_time.mean());
  EXPECT_EQ(first.queue_length.max(), again.queue_length.max());
}

TEST(SweepDeterminism, PooledAndSerialSweepsAreByteIdentical) {
  exp::SweepSpec spec;
  spec.id = "determinism";
  spec.title = "pooled vs serial";
  spec.cluster = {.node_count = 16, .cms = 1.0, .cps = 100.0};
  spec.loads = {0.4, 0.8, 1.0};
  spec.algorithms = {"EDF-OPR-MN", "EDF-DLT", "FIFO-DLT"};
  spec.runs = 3;
  spec.sim_time = 80000.0;

  const exp::SweepResult serial = exp::run_sweep(spec, nullptr);
  util::ThreadPool pool(4);
  const exp::SweepResult pooled = exp::run_sweep(spec, &pool);

  ASSERT_EQ(serial.curves.size(), pooled.curves.size());
  for (std::size_t a = 0; a < serial.curves.size(); ++a) {
    EXPECT_EQ(serial.curves[a].algorithm, pooled.curves[a].algorithm);
    for (std::size_t m = 0; m < exp::kSweepMetricCount; ++m) {
      const exp::MetricSeries& s = serial.curves[a].metrics[m];
      const exp::MetricSeries& p = pooled.curves[a].metrics[m];
      ASSERT_EQ(s.raw.size(), p.raw.size());
      for (std::size_t i = 0; i < s.raw.size(); ++i) {
        EXPECT_EQ(s.raw[i], p.raw[i])  // bitwise, not almost-equal
            << serial.curves[a].algorithm << " metric " << m << " sample " << i;
      }
      ASSERT_EQ(s.per_load.size(), p.per_load.size());
      for (std::size_t l = 0; l < s.per_load.size(); ++l) {
        EXPECT_EQ(s.per_load[l].mean, p.per_load[l].mean);
        EXPECT_EQ(s.per_load[l].half_width, p.per_load[l].half_width);
        EXPECT_EQ(s.per_load[l].samples, p.per_load[l].samples);
      }
    }
  }
}

}  // namespace
}  // namespace rtdls
