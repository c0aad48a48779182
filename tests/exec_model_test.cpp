// Tests for the actual-execution rollout (sim/exec_model), the piece that
// turns Theorem 4 into a runtime-checked invariant.
#include <gtest/gtest.h>

#include <algorithm>

#include "dlt/het_model.hpp"
#include "dlt/homogeneous.hpp"
#include "dlt/user_split.hpp"
#include "sched/partition_rule.hpp"
#include "sim/exec_model.hpp"
#include "workload/distributions.hpp"
#include "workload/rng.hpp"

namespace rtdls::sim {
namespace {

cluster::ClusterParams paper_params() {
  return {.node_count = 16, .cms = 1.0, .cps = 100.0};
}

sched::TaskPlan dlt_plan(double sigma, std::vector<cluster::Time> available) {
  const dlt::HetPartition part =
      dlt::build_het_partition(paper_params(), sigma, std::move(available));
  sched::TaskPlan plan;
  plan.task = 1;
  plan.nodes = part.nodes();
  plan.available = part.available;
  plan.reserve_from = part.available;
  plan.node_release.assign(part.nodes(), part.estimated_completion());
  plan.alpha = part.alpha;
  plan.est_completion = part.estimated_completion();
  return plan;
}

TEST(ExecModel, SequentialChannelNeverOverlaps) {
  const sched::TaskPlan plan = dlt_plan(200.0, {0.0, 100.0, 500.0, 1200.0});
  ActualTimeline timeline;
  roll_out(paper_params(), 200.0, plan, timeline);
  for (std::size_t i = 1; i < plan.nodes; ++i) {
    EXPECT_GE(timeline.tx_start[i] + 1e-12, timeline.tx_end[i - 1]);
  }
}

TEST(ExecModel, RespectsNodeAvailability) {
  const sched::TaskPlan plan = dlt_plan(200.0, {0.0, 400.0, 800.0});
  ActualTimeline timeline;
  roll_out(paper_params(), 200.0, plan, timeline);
  for (std::size_t i = 0; i < plan.nodes; ++i) {
    EXPECT_GE(timeline.tx_start[i], plan.reserve_from[i]);
    EXPECT_NEAR(timeline.tx_end[i] - timeline.tx_start[i],
                plan.alpha[i] * 200.0 * 1.0, 1e-9);
    EXPECT_NEAR(timeline.completion[i] - timeline.tx_end[i],
                plan.alpha[i] * 200.0 * 100.0, 1e-9);
  }
}

TEST(ExecModel, Theorem4ActualNeverExceedsEstimate) {
  workload::Xoshiro256StarStar rng(4242);
  // One timeline for every trial, as the simulator keeps one: the columns
  // shrink and grow with the plan, and the returned completion is the
  // rolled-out maximum bit for bit.
  ActualTimeline timeline;
  for (int trial = 0; trial < 200; ++trial) {
    const double sigma = workload::sample_uniform(rng, 10.0, 1000.0);
    const std::size_t n =
        static_cast<std::size_t>(workload::sample_uniform_int(rng, 1, 16));
    std::vector<cluster::Time> available;
    for (std::size_t i = 0; i < n; ++i) {
      available.push_back(workload::sample_uniform(rng, 0.0, 5000.0));
    }
    const sched::TaskPlan plan = dlt_plan(sigma, available);
    const cluster::Time actual = roll_out(paper_params(), sigma, plan, timeline);
    ASSERT_EQ(timeline.completion.size(), n);
    ASSERT_EQ(actual, timeline.task_completion()) << "trial " << trial;
    ASSERT_LE(actual, plan.est_completion * (1.0 + 1e-12))
        << "Theorem 4 violated at trial " << trial;
    // ... and each node also respects its per-node bound.
    const dlt::HetPartition part =
        dlt::build_het_partition(paper_params(), sigma, plan.available);
    const auto bounds = dlt::theorem4_completion_bounds(paper_params(), sigma, part);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_LE(timeline.completion[i], bounds[i] * (1.0 + 1e-12));
    }
  }
}

TEST(ExecModel, ResultRolloutReusesOneStorageAcrossPlanSizes) {
  // The simulator keeps one ResultTimeline for every commit: its columns and
  // the result-return order shrink and grow with the plan's k, and the
  // returned completion is the maximum of the written result_tx_end column,
  // bit for bit. A fresh storage writes the same columns.
  workload::Xoshiro256StarStar rng(9191);
  ResultTimeline timeline;
  for (int trial = 0; trial < 200; ++trial) {
    const double sigma = workload::sample_uniform(rng, 10.0, 1000.0);
    const double delta = trial % 8 == 0 ? 0.0 : workload::sample_uniform(rng, 0.05, 1.5);
    const std::size_t n =
        static_cast<std::size_t>(workload::sample_uniform_int(rng, 1, 16));
    std::vector<cluster::Time> available;
    for (std::size_t i = 0; i < n; ++i) {
      available.push_back(workload::sample_uniform(rng, 0.0, 5000.0));
    }
    const sched::TaskPlan plan = dlt_plan(sigma, available);
    const cluster::Time completion =
        roll_out_with_results(paper_params(), sigma, delta, plan, timeline);
    ASSERT_EQ(timeline.result_tx_start.size(), n) << "trial " << trial;
    ASSERT_EQ(timeline.result_tx_end.size(), n) << "trial " << trial;
    ASSERT_EQ(completion,
              *std::max_element(timeline.result_tx_end.begin(), timeline.result_tx_end.end()))
        << "trial " << trial;

    ResultTimeline fresh;
    ASSERT_EQ(roll_out_with_results(paper_params(), sigma, delta, plan, fresh), completion);
    ASSERT_EQ(fresh.input.completion, timeline.input.completion) << "trial " << trial;
    ASSERT_EQ(fresh.result_tx_start, timeline.result_tx_start) << "trial " << trial;
    ASSERT_EQ(fresh.result_tx_end, timeline.result_tx_end) << "trial " << trial;
  }
}

TEST(ExecModel, OprPlanFinishesExactlyAtEstimate) {
  // All nodes start at r_n with the optimal homogeneous partition: every
  // node's actual completion equals the estimate (zero skew).
  const std::size_t n = 8;
  const cluster::Time rn = 700.0;
  const double sigma = 200.0;
  sched::TaskPlan plan;
  plan.task = 2;
  plan.nodes = n;
  plan.available.assign(n, rn);
  plan.reserve_from.assign(n, rn);
  plan.alpha = dlt::homogeneous_partition(paper_params(), n);
  plan.est_completion = rn + dlt::homogeneous_execution_time(paper_params(), sigma, n);
  plan.node_release.assign(n, plan.est_completion);

  ActualTimeline timeline;
  roll_out(paper_params(), sigma, plan, timeline);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(timeline.completion[i], plan.est_completion, 1e-6);
  }
}

TEST(ExecModel, UserSplitMatchesEq15Schedule) {
  const double sigma = 200.0;
  const std::vector<cluster::Time> available{0.0, 300.0, 310.0, 900.0};
  const dlt::UserSplitSchedule expected =
      dlt::build_user_split_schedule(paper_params(), sigma, available);

  sched::TaskPlan plan;
  plan.task = 3;
  plan.nodes = 4;
  plan.available = expected.available;
  plan.reserve_from = expected.available;
  plan.node_release = expected.completion;
  plan.alpha.assign(4, 0.25);
  plan.est_completion = expected.task_completion();

  ActualTimeline timeline;
  roll_out(paper_params(), sigma, plan, timeline);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(timeline.tx_start[i], expected.start[i], 1e-9);
    EXPECT_NEAR(timeline.completion[i], expected.completion[i], 1e-9);
  }
}

TEST(ExecModel, SharedChannelDelaysTransmissions) {
  const sched::TaskPlan plan = dlt_plan(200.0, {0.0, 0.0, 0.0});
  ActualTimeline dedicated;
  ActualTimeline contended;
  const cluster::Time free_link = roll_out(paper_params(), 200.0, plan, dedicated, 0.0);
  const cluster::Time busy_link = roll_out(paper_params(), 200.0, plan, contended, 500.0);
  EXPECT_GE(contended.tx_start[0], 500.0);
  EXPECT_GT(busy_link, free_link);
  EXPECT_EQ(busy_link, contended.task_completion());
}

TEST(ExecModel, InvalidInputsThrow) {
  sched::TaskPlan empty;
  ActualTimeline timeline;
  EXPECT_THROW(roll_out(paper_params(), 100.0, empty, timeline), std::invalid_argument);
  const sched::TaskPlan plan = dlt_plan(200.0, {0.0});
  EXPECT_THROW(roll_out(paper_params(), 0.0, plan, timeline), std::invalid_argument);
}

}  // namespace
}  // namespace rtdls::sim
