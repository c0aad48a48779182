// Tests for the extension features: output-data transfer (*-IO rules and
// the result-collection rollout), the general heterogeneous partition, and
// the backfilling comparator (OPR-MN-BF).
#include <gtest/gtest.h>

#include <cmath>

#include "dlt/het_model.hpp"
#include "dlt/homogeneous.hpp"
#include "dlt/nmin.hpp"
#include "dlt/output_model.hpp"
#include "sched/admission.hpp"
#include "sched/registry.hpp"
#include "sim/exec_model.hpp"
#include "sim/simulator.hpp"
#include "util/log.hpp"
#include "workload/distributions.hpp"
#include "workload/generator.hpp"

namespace rtdls {
namespace {

cluster::ClusterParams paper_params() {
  return {.node_count = 16, .cms = 1.0, .cps = 100.0};
}

workload::Task make_task(cluster::TaskId id, double arrival, double sigma, double deadline,
                         std::size_t user_nodes = 8) {
  workload::Task task;
  task.id = id;
  task.spec = {arrival, sigma, deadline};
  task.user_nodes = user_nodes;
  return task;
}

// --- general heterogeneous partition -----------------------------------------

TEST(GeneralHet, UniformCostsMatchHomogeneous) {
  const std::vector<double> cps(8, 100.0);
  const auto alpha = dlt::general_het_alpha(1.0, cps);
  const auto reference = dlt::homogeneous_partition(paper_params(), 8);
  ASSERT_EQ(alpha.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_NEAR(alpha[i], reference[i], 1e-12);
  EXPECT_NEAR(dlt::general_het_execution_time(1.0, cps, 200.0),
              dlt::homogeneous_execution_time(paper_params(), 200.0, 8), 1e-8);
}

TEST(GeneralHet, FasterNodesGetMoreLoad) {
  // Genuinely heterogeneous cluster: node costs 50, 100, 200 (fast first).
  const std::vector<double> cps{50.0, 100.0, 200.0};
  const auto alpha = dlt::general_het_alpha(1.0, cps);
  EXPECT_GT(alpha[0], alpha[1]);
  EXPECT_GT(alpha[1], alpha[2]);
  double sum = 0.0;
  for (double a : alpha) sum += a;
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(GeneralHet, EqualModelFinishTimesForArbitraryCosts) {
  const std::vector<double> cps{37.0, 81.0, 144.0, 500.0};
  const double cms = 2.5;
  const double sigma = 123.0;
  const auto alpha = dlt::general_het_alpha(cms, cps);
  double prefix = 0.0;
  double reference = -1.0;
  for (std::size_t i = 0; i < cps.size(); ++i) {
    prefix += alpha[i] * sigma * cms;
    const double finish = prefix + alpha[i] * sigma * cps[i];
    if (i == 0) {
      reference = finish;
    } else {
      EXPECT_NEAR(finish, reference, reference * 1e-9);
    }
  }
  EXPECT_NEAR(reference, dlt::general_het_execution_time(cms, cps, sigma),
              reference * 1e-9);
}

TEST(GeneralHet, InvalidInputsThrow) {
  EXPECT_THROW(dlt::general_het_alpha(0.0, {1.0}), std::invalid_argument);
  EXPECT_THROW(dlt::general_het_alpha(1.0, {}), std::invalid_argument);
  EXPECT_THROW(dlt::general_het_alpha(1.0, {1.0, -1.0}), std::invalid_argument);
}

// --- output model ---------------------------------------------------------------

TEST(OutputModel, ChannelTimeAndBudget) {
  EXPECT_DOUBLE_EQ(dlt::output_channel_time(paper_params(), 200.0, 0.2), 40.0);
  EXPECT_DOUBLE_EQ(dlt::output_channel_time(paper_params(), 200.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(dlt::output_completion_bound(paper_params(), 200.0, 0.2, 1000.0),
                   1040.0);
  EXPECT_THROW(dlt::output_channel_time(paper_params(), 200.0, -0.1),
               std::invalid_argument);
}

TEST(OutputModel, RolloutRespectsBoundUnderFuzz) {
  // Property: the exact result-collection rollout never exceeds the bound
  // input_completion + delta*sigma*Cms used for admission.
  workload::Xoshiro256StarStar rng(777);
  for (int trial = 0; trial < 100; ++trial) {
    const double sigma = workload::sample_uniform(rng, 10.0, 800.0);
    const double delta = workload::sample_uniform(rng, 0.0, 1.5);
    const std::size_t n =
        static_cast<std::size_t>(workload::sample_uniform_int(rng, 1, 16));
    std::vector<cluster::Time> available;
    for (std::size_t i = 0; i < n; ++i) {
      available.push_back(workload::sample_uniform(rng, 0.0, 4000.0));
    }
    const dlt::HetPartition part =
        dlt::build_het_partition(paper_params(), sigma, available);

    sched::TaskPlan plan;
    plan.task = 1;
    plan.nodes = n;
    plan.available = part.available;
    plan.reserve_from = part.available;
    plan.alpha = part.alpha;
    plan.est_completion = part.estimated_completion();
    plan.node_release.assign(n, plan.est_completion);

    const sim::ResultTimeline timeline =
        sim::roll_out_with_results(paper_params(), sigma, delta, plan);
    const cluster::Time bound = dlt::output_completion_bound(
        paper_params(), sigma, delta, part.estimated_completion());
    ASSERT_LE(timeline.task_completion, bound * (1.0 + 1e-9)) << "trial " << trial;
    // Results leave only after their node computed.
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_GE(timeline.result_tx_start[i] + 1e-9, timeline.input.completion[i]);
    }
  }
}

TEST(OutputModel, ZeroDeltaDegeneratesToInputTimeline) {
  const std::vector<cluster::Time> available{0.0, 100.0};
  const dlt::HetPartition part = dlt::build_het_partition(paper_params(), 200.0, available);
  sched::TaskPlan plan;
  plan.task = 1;
  plan.nodes = 2;
  plan.available = part.available;
  plan.reserve_from = part.available;
  plan.alpha = part.alpha;
  plan.est_completion = part.estimated_completion();
  plan.node_release.assign(2, plan.est_completion);
  const sim::ResultTimeline timeline =
      sim::roll_out_with_results(paper_params(), 200.0, 0.0, plan);
  EXPECT_DOUBLE_EQ(timeline.task_completion, timeline.input.task_completion());
}

// --- *-IO rules -------------------------------------------------------------------

TEST(OutputRule, BudgetsResultPhaseIntoDeadline) {
  const sched::Algorithm io = sched::make_algorithm("EDF-DLT-IO20");
  const sched::Algorithm plain = sched::make_algorithm("EDF-DLT");
  const workload::Task task = make_task(1, 0.0, 200.0, 3000.0);
  std::vector<cluster::Time> free_times(16, 0.0);
  sched::PlanRequest request;
  request.task = &task;
  request.params = paper_params();
  request.free_times = &free_times;

  const sched::PlanResult with_io = io.rule->plan(request);
  const sched::PlanResult without = plain.rule->plan(request);
  ASSERT_TRUE(with_io.feasible());
  ASSERT_TRUE(without.feasible());
  // The input phase planned against the tighter deadline needs at least as
  // many nodes; the result channel time rides on top of that input plan
  // (the total can undercut the plain estimate - more nodes, faster input).
  EXPECT_LE(with_io.plan.est_completion, task.abs_deadline() + 1e-9);
  EXPECT_GE(with_io.plan.nodes, without.plan.nodes);
  workload::Task tighter = task;
  tighter.spec.rel_deadline -= dlt::output_channel_time(paper_params(), 200.0, 0.2);
  sched::PlanRequest tight_request = request;
  tight_request.task = &tighter;
  const sched::PlanResult input_only = plain.rule->plan(tight_request);
  ASSERT_TRUE(input_only.feasible());
  EXPECT_NEAR(with_io.plan.est_completion,
              input_only.plan.est_completion +
                  dlt::output_channel_time(paper_params(), 200.0, 0.2),
              1e-9);
}

TEST(OutputRule, RejectsWhenResultsAloneBlowDeadline) {
  // delta*sigma*Cms = 0.5 * 600 * 1 = 300 >= D = 250.
  const sched::Algorithm io = sched::make_algorithm("EDF-DLT-IO50");
  const workload::Task task = make_task(1, 0.0, 600.0, 250.0);
  std::vector<cluster::Time> free_times(16, 0.0);
  sched::PlanRequest request;
  request.task = &task;
  request.params = paper_params();
  request.free_times = &free_times;
  const sched::PlanResult result = io.rule->plan(request);
  EXPECT_FALSE(result.feasible());
}

TEST(OutputRule, EndToEndNoMissesWhenConfigMatches) {
  workload::WorkloadParams params;
  params.cluster = paper_params();
  params.system_load = 0.7;
  params.total_time = 300000.0;
  params.seed = 33;
  const auto tasks = workload::generate_workload(params);

  sim::SimulatorConfig config;
  config.params = params.cluster;
  config.output_ratio = 0.2;
  const sim::SimMetrics metrics =
      sim::simulate(config, "EDF-DLT-IO20", tasks, params.total_time);
  EXPECT_EQ(metrics.theorem4_violations, 0u);
  EXPECT_EQ(metrics.deadline_misses, 0u);
  EXPECT_GT(metrics.accepted, 0u);
}

TEST(OutputRule, MismatchedConfigIsDetected) {
  // Plain DLT admission (no result budget) + output traffic in execution:
  // the validator must catch estimate violations - this guards users
  // against misconfiguring delta.
  util::Logger::instance().set_level(util::LogLevel::kOff);  // intentional violations
  workload::WorkloadParams params;
  params.cluster = paper_params();
  params.system_load = 0.9;
  params.total_time = 300000.0;
  params.seed = 34;
  const auto tasks = workload::generate_workload(params);

  sim::SimulatorConfig config;
  config.params = params.cluster;
  config.output_ratio = 0.5;
  const sim::SimMetrics metrics = sim::simulate(config, "EDF-DLT", tasks, params.total_time);
  EXPECT_GT(metrics.theorem4_violations + metrics.deadline_misses, 0u);
}

TEST(OutputRule, RegistryParsesAndRejectsNames) {
  EXPECT_NO_THROW(sched::make_algorithm("EDF-DLT-IO20"));
  EXPECT_NO_THROW(sched::make_algorithm("FIFO-OPR-MN-IO5"));
  EXPECT_NO_THROW(sched::make_algorithm("EDF-UserSplit-IO100"));
  EXPECT_THROW(sched::make_algorithm("EDF-DLT-IOxx"), std::invalid_argument);
  EXPECT_THROW(sched::make_algorithm("EDF-IO20"), std::invalid_argument);
}

// --- backfilling comparator ----------------------------------------------------

TEST(BackfillRule, RequiresCalendar) {
  const sched::Algorithm bf = sched::make_algorithm("EDF-OPR-MN-BF");
  EXPECT_TRUE(bf.rule->uses_calendar());
  const workload::Task task = make_task(1, 0.0, 200.0, 3000.0);
  std::vector<cluster::Time> free_times(16, 0.0);
  sched::PlanRequest request;
  request.task = &task;
  request.params = paper_params();
  request.free_times = &free_times;
  EXPECT_THROW(bf.rule->plan(request), std::invalid_argument);
}

TEST(BackfillRule, IdleClusterMatchesOprMn) {
  const sched::Algorithm bf = sched::make_algorithm("EDF-OPR-MN-BF");
  const sched::Algorithm mn = sched::make_algorithm("EDF-OPR-MN");
  const workload::Task task = make_task(1, 0.0, 200.0, 3000.0);
  std::vector<cluster::Time> free_times(16, 0.0);
  cluster::NodeCalendar calendar(16);
  sched::PlanRequest request;
  request.task = &task;
  request.params = paper_params();
  request.free_times = &free_times;
  request.calendar = &calendar;
  const sched::PlanResult a = bf.rule->plan(request);
  const sched::PlanResult b = mn.rule->plan(request);
  ASSERT_TRUE(a.feasible());
  ASSERT_TRUE(b.feasible());
  EXPECT_EQ(a.plan.nodes, b.plan.nodes);
  EXPECT_NEAR(a.plan.est_completion, b.plan.est_completion, 1e-9);
  EXPECT_EQ(a.plan.node_ids.size(), a.plan.nodes);
}

TEST(BackfillRule, FillsAGapInFrontOfAReservation) {
  // All 16 nodes reserved [5000, 6000); a short task fits in front at t=0,
  // which the release-time OPR-MN view (free at 6000) cannot see.
  cluster::NodeCalendar calendar(16);
  for (cluster::NodeId id = 0; id < 16; ++id) calendar.reserve(id, 5000.0, 6000.0);
  std::vector<cluster::Time> release_view(16, 6000.0);

  const workload::Task task = make_task(1, 0.0, 30.0, 3000.0);
  sched::PlanRequest request;
  request.task = &task;
  request.params = paper_params();
  request.free_times = &release_view;
  request.calendar = &calendar;

  const sched::Algorithm bf = sched::make_algorithm("EDF-OPR-MN-BF");
  const sched::PlanResult backfilled = bf.rule->plan(request);
  ASSERT_TRUE(backfilled.feasible());
  EXPECT_DOUBLE_EQ(backfilled.plan.available.front(), 0.0);
  EXPECT_LE(backfilled.plan.est_completion, 3000.0);

  const sched::Algorithm mn = sched::make_algorithm("EDF-OPR-MN");
  EXPECT_FALSE(mn.rule->plan(request).feasible());  // release view: too late
}

TEST(BackfillRule, NudgedNminOvershootRetriesInsteadOfRejecting) {
  // Regression: minimum_nodes' "accept n-1 within 1e-12 relative slack"
  // nudge can return an n whose E(sigma, n) overshoots the slack by more
  // than the rule's 1e-9 absolute tolerance at large time magnitudes. The
  // backfill rule used to hard-stop the whole candidate scan there and
  // reject the task; it must instead retry with one extra node.
  const cluster::ClusterParams params = paper_params();
  const double deadline = 2.0e6;  // large slack so the overshoot dwarfs 1e-9
  const double beta = params.beta();

  // The nudge fires when log(gamma)/log(beta) lands just above an integer
  // k; sweep sigma through the fp window around each gamma = beta^k
  // crossing until minimum_nodes returns an n that the rule's own
  // completion check would have rejected.
  double trigger_sigma = 0.0;
  dlt::NminResult trigger_need;
  for (int k = 3; k <= 8 && trigger_sigma == 0.0; ++k) {
    const double center = deadline * (1.0 - std::pow(beta, k));
    for (double sigma = center - 2e-3; sigma <= center + 2e-3; sigma += 5e-7) {
      const dlt::NminResult need = dlt::minimum_nodes(params, sigma, deadline, 0.0);
      if (!need.feasible() || need.nodes > params.node_count) continue;
      const double duration =
          dlt::homogeneous_execution_time(params, sigma, need.nodes);
      if (duration > deadline + 1e-9) {
        trigger_sigma = sigma;
        trigger_need = need;
        break;
      }
    }
  }
  if (trigger_sigma == 0.0) {
    // Whether the sweep hits the last-ulp window depends on the platform's
    // libm rounding; on this repo's reference toolchain (glibc/x86-64) it
    // reliably does. Skip rather than fail elsewhere.
    GTEST_SKIP() << "no nudge-trigger parameters found on this libm";
  }

  // On an empty calendar the only candidate time is t=0, so pre-fix the
  // rule rejected this task outright.
  cluster::NodeCalendar calendar(params.node_count);
  std::vector<cluster::Time> free_times(params.node_count, 0.0);
  const workload::Task task = make_task(1, 0.0, trigger_sigma, deadline);
  sched::PlanRequest request;
  request.task = &task;
  request.params = params;
  request.free_times = &free_times;
  request.calendar = &calendar;

  const sched::Algorithm bf = sched::make_algorithm("EDF-OPR-MN-BF");
  const sched::PlanResult result = bf.rule->plan(request);
  ASSERT_TRUE(result.feasible()) << "nudge overshoot still rejects the task";
  EXPECT_EQ(result.plan.nodes, trigger_need.nodes + 1);
  EXPECT_LE(result.plan.est_completion, deadline + 1e-9);
}

TEST(BackfillRule, AdmissionKeepsPlansConflictFree) {
  const sched::Algorithm bf = sched::make_algorithm("FIFO-OPR-MN-BF");
  sched::AdmissionController controller(bf.policy, bf.rule.get());
  cluster::NodeCalendar calendar(16);
  std::vector<cluster::Time> free_times(16, 0.0);

  const workload::Task a = make_task(1, 0.0, 200.0, 2000.0);
  const workload::Task b = make_task(2, 0.0, 200.0, 30000.0);
  const workload::Task c = make_task(3, 0.0, 100.0, 30000.0);
  const sched::AdmissionOutcome outcome =
      controller.test(&c, {&a, &b}, paper_params(), free_times, 0.0, &calendar);
  ASSERT_TRUE(outcome.accepted);
  // Replaying every plan into a fresh calendar must not conflict.
  cluster::NodeCalendar replay(16);
  for (const sched::ScheduledTask& scheduled : outcome.schedule) {
    for (std::size_t i = 0; i < scheduled.plan.nodes; ++i) {
      EXPECT_NO_THROW(replay.reserve(scheduled.plan.node_ids[i],
                                     scheduled.plan.reserve_from[i],
                                     scheduled.plan.node_release[i]));
    }
  }
}

TEST(BackfillRule, EndToEndNeverWorseThanOprMn) {
  workload::WorkloadParams params;
  params.cluster = paper_params();
  params.total_time = 400000.0;
  params.seed = 35;
  for (double load : {0.4, 0.9}) {
    params.system_load = load;
    const auto tasks = workload::generate_workload(params);
    sim::SimulatorConfig config;
    config.params = params.cluster;
    const double bf = sim::simulate(config, "EDF-OPR-MN-BF", tasks, params.total_time)
                          .reject_ratio();
    const double mn =
        sim::simulate(config, "EDF-OPR-MN", tasks, params.total_time).reject_ratio();
    EXPECT_LE(bf, mn + 0.01) << "load " << load;
  }
}

TEST(BackfillRule, SimulatorInvariantsHoldInCalendarMode) {
  workload::WorkloadParams params;
  params.cluster = paper_params();
  params.system_load = 0.8;
  params.total_time = 400000.0;
  params.seed = 36;
  const auto tasks = workload::generate_workload(params);
  sim::SimulatorConfig config;
  config.params = params.cluster;
  const sim::SimMetrics metrics =
      sim::simulate(config, "EDF-OPR-MN-BF", tasks, params.total_time);
  EXPECT_EQ(metrics.theorem4_violations, 0u);
  EXPECT_EQ(metrics.deadline_misses, 0u);
  EXPECT_EQ(metrics.accepted + metrics.rejected, metrics.arrivals);
  if (metrics.accepted > 0) {
    EXPECT_GE(metrics.deadline_slack.min(), -1e-6);
  }
  EXPECT_GT(metrics.busy_time, 0.0);
}

}  // namespace
}  // namespace rtdls
