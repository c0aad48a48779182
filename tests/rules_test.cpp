// Tests for the concrete partition rules (Decisions #2/#3 of the Figure-2
// framework): DLT-IIT, OPR-MN, OPR-AN, UserSplit, MultiRound.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>

#include "cluster/speed_profile.hpp"
#include "dlt/homogeneous.hpp"
#include "dlt/nmin.hpp"
#include "sched/partition_rule.hpp"

namespace rtdls::sched {
namespace {

cluster::ClusterParams paper_params() {
  return {.node_count = 16, .cms = 1.0, .cps = 100.0};
}

workload::Task make_task(double arrival, double sigma, double deadline,
                         std::size_t user_nodes = 0) {
  static cluster::TaskId next_id = 100;
  workload::Task task;
  task.id = next_id++;
  task.spec = {arrival, sigma, deadline};
  task.user_nodes = user_nodes;
  return task;
}

PlanResult plan_with(const PartitionRule& rule, const workload::Task& task,
                     std::vector<cluster::Time> free_times, double now = 0.0) {
  const cluster::AvailabilityView row({std::move(free_times), {}});
  PlanRequest request;
  request.task = &task;
  request.params = paper_params();
  request.row = &row;
  request.now = now;
  return rule.plan(request);
}

std::vector<cluster::Time> idle_cluster() { return std::vector<cluster::Time>(16, 0.0); }

// --- DLT rule -----------------------------------------------------------------

TEST(DltRule, AssignsNminOnIdleCluster) {
  const auto rule = make_dlt_iit_rule();
  const workload::Task task = make_task(0.0, 200.0, 3000.0);
  const PlanResult result = plan_with(*rule, task, idle_cluster());
  ASSERT_TRUE(result.feasible());
  const dlt::NminResult expected = dlt::minimum_nodes(paper_params(), 200.0, 3000.0, 0.0);
  EXPECT_EQ(result.plan.nodes, expected.nodes);
  EXPECT_TRUE(result.plan.consistent());
  EXPECT_LE(result.plan.est_completion, 3000.0 + 1e-9);
}

TEST(DltRule, ReservesNodesFromTheirOwnAvailability) {
  const auto rule = make_dlt_iit_rule();
  const workload::Task task = make_task(0.0, 200.0, 6000.0);
  std::vector<cluster::Time> free_times = idle_cluster();
  free_times[0] = 500.0;  // one node busy until 500 (will sort first anyway)
  for (std::size_t i = 0; i < 8; ++i) free_times[i] = 100.0 * static_cast<double>(i);
  std::sort(free_times.begin(), free_times.end());
  const PlanResult result = plan_with(*rule, task, free_times);
  ASSERT_TRUE(result.feasible());
  EXPECT_EQ(result.plan.reserve_from, result.plan.available);  // IITs utilized
}

TEST(DltRule, EstimateNeverExceedsOprEstimate) {
  // Eq. 9: E_hat <= E means the DLT estimate is no worse than OPR-MN's for
  // the same staggered availability.
  const auto dlt_rule = make_dlt_iit_rule();
  const auto opr_rule = make_opr_mn_rule();
  const workload::Task task = make_task(0.0, 200.0, 5000.0);
  std::vector<cluster::Time> free_times = idle_cluster();
  for (std::size_t i = 0; i < 16; ++i) free_times[i] = 150.0 * static_cast<double>(i);
  const PlanResult dlt = plan_with(*dlt_rule, task, free_times);
  const PlanResult opr = plan_with(*opr_rule, task, free_times);
  ASSERT_TRUE(dlt.feasible());
  ASSERT_TRUE(opr.feasible());
  EXPECT_EQ(dlt.plan.nodes, opr.plan.nodes);
  EXPECT_LE(dlt.plan.est_completion, opr.plan.est_completion + 1e-9);
}

TEST(DltRule, ClampedFallbackAcceptsWhereOprRejects) {
  // Construct a marginal task: feasible on the whole cluster only thanks to
  // the IIT-utilizing E_hat, not under the no-IIT E. 8 nodes idle, 8 nodes
  // free at 1000; deadline between rn + E_hat(16) and rn + E(16).
  std::vector<cluster::Time> free_times(16, 0.0);
  for (std::size_t i = 8; i < 16; ++i) free_times[i] = 1000.0;
  const double sigma = 200.0;
  const double e16 = dlt::homogeneous_execution_time(paper_params(), sigma, 16);

  const auto dlt_rule = make_dlt_iit_rule();
  const auto opr_rule = make_opr_mn_rule();
  // Probe the DLT estimate first to pick a deadline strictly between.
  const workload::Task probe = make_task(0.0, sigma, 1e9);
  const PlanResult wide = plan_with(*dlt_rule, probe, free_times);
  ASSERT_TRUE(wide.feasible());

  // DLT on all 16 of those nodes: estimate via the het model.
  std::vector<cluster::Time> all16 = free_times;
  const workload::Task marginal =
      make_task(0.0, sigma, 1000.0 + e16 * 0.97);  // < rn + E, > rn + E_hat?
  const PlanResult dlt = plan_with(*dlt_rule, marginal, all16);
  const PlanResult opr = plan_with(*opr_rule, marginal, all16);
  EXPECT_FALSE(opr.feasible());
  ASSERT_TRUE(dlt.feasible()) << "E_hat headroom should admit the marginal task";
  EXPECT_EQ(dlt.plan.nodes, 16u);
  EXPECT_LE(dlt.plan.est_completion, marginal.abs_deadline() + 1e-9);
}

TEST(DltRule, HardInfeasibilityReasons) {
  const auto rule = make_dlt_iit_rule();
  const workload::Task passed = make_task(0.0, 200.0, 10.0);
  std::vector<cluster::Time> busy(16, 50.0);
  EXPECT_EQ(plan_with(*rule, passed, busy).reason, dlt::Infeasibility::kDeadlinePassed);

  const workload::Task tx_bound = make_task(0.0, 200.0, 150.0);  // < sigma*Cms
  EXPECT_EQ(plan_with(*rule, tx_bound, idle_cluster()).reason,
            dlt::Infeasibility::kTransmissionTooLong);
}

TEST(DltRule, OptimisticVariantRejectsViaCompletionCheck) {
  // 1 node idle, 15 very busy; optimistic n from free[0]=0 is small, but
  // those n nodes only gather late -> completion check rejects.
  std::vector<cluster::Time> free_times(16, 20000.0);
  free_times[0] = 0.0;
  const workload::Task task = make_task(0.0, 200.0, 3000.0);
  const auto optimistic = make_dlt_iit_rule(NodeSearch::kOptimistic);
  const PlanResult result = plan_with(*optimistic, task, free_times);
  EXPECT_FALSE(result.feasible());
  // The iterative variant also fails here (only 1 node is usable in time),
  // but via the n search.
  const auto iterative = make_dlt_iit_rule();
  EXPECT_FALSE(plan_with(*iterative, task, free_times).feasible());
}

TEST(DltRule, MalformedRequestThrows) {
  const auto rule = make_dlt_iit_rule();
  PlanRequest request;
  EXPECT_THROW(rule->plan(request), std::invalid_argument);
  const workload::Task task = make_task(0.0, 200.0, 3000.0);
  request.task = &task;
  const cluster::AvailabilityView wrong_size({std::vector<cluster::Time>(3, 0.0), {}});
  request.params = paper_params();
  request.row = &wrong_size;
  EXPECT_THROW(rule->plan(request), std::invalid_argument);
}

// --- OPR rules -----------------------------------------------------------------

TEST(OprMnRule, SimultaneousAllocationWastesIits) {
  const auto rule = make_opr_mn_rule();
  const workload::Task task = make_task(0.0, 200.0, 6000.0);
  std::vector<cluster::Time> free_times = idle_cluster();
  for (std::size_t i = 0; i < 16; ++i) free_times[i] = 100.0 * static_cast<double>(i);
  const PlanResult result = plan_with(*rule, task, free_times);
  ASSERT_TRUE(result.feasible());
  const cluster::Time rn = result.plan.available.back();
  for (cluster::Time reserve : result.plan.reserve_from) {
    EXPECT_DOUBLE_EQ(reserve, rn);  // everyone waits for the last node
  }
  const double e = dlt::homogeneous_execution_time(paper_params(), 200.0,
                                                   result.plan.nodes);
  EXPECT_NEAR(result.plan.est_completion, rn + e, 1e-9);
}

TEST(OprMnRule, IdleClusterMatchesDltPlan) {
  // Without stagger the two rules coincide (same n, same estimate).
  const auto opr = make_opr_mn_rule();
  const auto dlt = make_dlt_iit_rule();
  const workload::Task task = make_task(0.0, 200.0, 3000.0);
  const PlanResult a = plan_with(*opr, task, idle_cluster());
  const PlanResult b = plan_with(*dlt, task, idle_cluster());
  ASSERT_TRUE(a.feasible());
  ASSERT_TRUE(b.feasible());
  EXPECT_EQ(a.plan.nodes, b.plan.nodes);
  EXPECT_NEAR(a.plan.est_completion, b.plan.est_completion, 1e-6);
}

TEST(OprAnRule, AlwaysUsesWholeCluster) {
  const auto rule = make_opr_an_rule();
  const workload::Task task = make_task(0.0, 200.0, 3000.0);
  const PlanResult result = plan_with(*rule, task, idle_cluster());
  ASSERT_TRUE(result.feasible());
  EXPECT_EQ(result.plan.nodes, 16u);
  EXPECT_NEAR(result.plan.est_completion,
              dlt::homogeneous_execution_time(paper_params(), 200.0, 16), 1e-9);
}

TEST(OprAnRule, RejectsWhenClusterGathersTooLate) {
  const auto rule = make_opr_an_rule();
  const workload::Task task = make_task(0.0, 200.0, 3000.0);
  std::vector<cluster::Time> free_times = idle_cluster();
  free_times[15] = 2500.0;  // one laggard delays the whole task
  const PlanResult result = plan_with(*rule, task, free_times);
  EXPECT_FALSE(result.feasible());
}

// --- UserSplit rule ---------------------------------------------------------------

TEST(UserSplitRule, UsesRequestedNodeCount) {
  const auto rule = make_user_split_rule();
  const workload::Task task = make_task(0.0, 200.0, 4000.0, /*user_nodes=*/10);
  const PlanResult result = plan_with(*rule, task, idle_cluster());
  ASSERT_TRUE(result.feasible());
  EXPECT_EQ(result.plan.nodes, 10u);
  for (double a : result.plan.alpha) EXPECT_DOUBLE_EQ(a, 0.1);
  // Per-node releases are the per-node completions (staggered by chunk tx).
  EXPECT_LT(result.plan.node_release.front(), result.plan.node_release.back());
}

TEST(UserSplitRule, ZeroRequestMeansWholeCluster) {
  const auto rule = make_user_split_rule();
  const workload::Task task = make_task(0.0, 200.0, 4000.0, 0);
  const PlanResult result = plan_with(*rule, task, idle_cluster());
  ASSERT_TRUE(result.feasible());
  EXPECT_EQ(result.plan.nodes, 16u);
}

TEST(UserSplitRule, RejectsWhenEqualSplitMissesDeadline) {
  const auto rule = make_user_split_rule();
  // sigma=200 on 2 nodes: C = 200 + 20000/2 = 10200 > 4000.
  const workload::Task task = make_task(0.0, 200.0, 4000.0, 2);
  const PlanResult result = plan_with(*rule, task, idle_cluster());
  EXPECT_FALSE(result.feasible());
  EXPECT_EQ(result.reason, dlt::Infeasibility::kNeedsMoreNodes);
}

TEST(UserSplitRule, EstimateMatchesEq15) {
  const auto rule = make_user_split_rule();
  const workload::Task task = make_task(0.0, 200.0, 4000.0, 8);
  const PlanResult result = plan_with(*rule, task, idle_cluster());
  ASSERT_TRUE(result.feasible());
  EXPECT_NEAR(result.plan.est_completion, 200.0 + 20000.0 / 8.0, 1e-9);
}

// --- MultiRound rule --------------------------------------------------------------

TEST(MultiRoundRule, FeasibleAndNoWorseThanSingleRoundEstimate) {
  const auto mr = make_multiround_rule(4);
  const auto single = make_dlt_iit_rule();
  const workload::Task task = make_task(0.0, 200.0, 5000.0);
  std::vector<cluster::Time> free_times = idle_cluster();
  for (std::size_t i = 8; i < 16; ++i) free_times[i] = 800.0;
  const PlanResult a = plan_with(*mr, task, free_times);
  const PlanResult b = plan_with(*single, task, free_times);
  ASSERT_TRUE(a.feasible());
  ASSERT_TRUE(b.feasible());
  EXPECT_LE(a.plan.est_completion, task.abs_deadline() + 1e-9);
  EXPECT_TRUE(a.plan.consistent());
  EXPECT_EQ(a.plan.rounds == 4 || a.plan.rounds == 1, true);
}

TEST(MultiRoundRule, RejectsImpossibleTask) {
  const auto mr = make_multiround_rule(2);
  const workload::Task task = make_task(0.0, 200.0, 150.0);
  EXPECT_FALSE(plan_with(*mr, task, idle_cluster()).feasible());
}

// --- cross-rule parameterized sweep -------------------------------------------------

struct RuleCase {
  const char* label;
  std::unique_ptr<PartitionRule> (*factory)();
};

// Prints a case as its label. gtest's default would dump the struct's bytes,
// and the two pointers in them move with every build and every run, so the
// listed test names would too.
void PrintTo(const RuleCase& rule_case, std::ostream* os) { *os << rule_case.label; }

std::unique_ptr<PartitionRule> make_dlt_default() { return make_dlt_iit_rule(); }
std::unique_ptr<PartitionRule> make_opr_default() { return make_opr_mn_rule(); }
std::unique_ptr<PartitionRule> make_mr2() { return make_multiround_rule(2); }

/// The instant TaskPlan::commit_time() must report, recomputed by a loop:
/// the earliest of est_completion and every reserve_from entry.
cluster::Time earliest_commitment(const TaskPlan& plan) {
  cluster::Time earliest = plan.est_completion;
  for (cluster::Time t : plan.reserve_from) earliest = std::min(earliest, t);
  return earliest;
}

/// Release times of 16 nodes that reach `busy_until`: either two steps
/// (the last six busy until then) or a staircase, so IIT-utilizing plans
/// reserve from distinct instants.
std::vector<cluster::Time> release_times(double busy_until, bool staircase) {
  std::vector<cluster::Time> free_times(16, 0.0);
  for (std::size_t i = 0; i < 16; ++i) {
    if (staircase) {
      free_times[i] = busy_until * static_cast<double>(i) / 16.0;
    } else if (i >= 10) {
      free_times[i] = busy_until;
    }
  }
  return free_times;
}

/// Plans a grid of tasks on `params` (a heterogeneous row names its nodes;
/// a calendar rule plans against the same busy intervals) and checks every
/// feasible plan.
void expect_sound_feasible_plans(const PartitionRule& rule,
                                 const cluster::ClusterParams& params) {
  for (double sigma : {20.0, 200.0, 600.0}) {
    for (double deadline : {500.0, 3000.0, 30000.0}) {
      for (double busy_until : {0.0, 400.0, 2000.0}) {
        for (bool staircase : {false, true}) {
          std::vector<cluster::Time> free_times = release_times(busy_until, staircase);
          cluster::NodeCalendar calendar(16);
          for (cluster::NodeId id = 0; id < 16; ++id) {
            if (free_times[id] > 0.0) calendar.reserve(id, 0.0, free_times[id]);
          }
          std::vector<cluster::NodeId> ids;
          if (params.heterogeneous()) {
            ids.resize(16);
            std::iota(ids.begin(), ids.end(), cluster::NodeId{0});
          }
          const cluster::AvailabilityView row({std::move(free_times), std::move(ids)});
          workload::Task task = make_task(0.0, sigma, deadline, /*user_nodes=*/12);
          PlanRequest request;
          request.task = &task;
          request.params = params;
          request.row = &row;
          request.calendar = rule.uses_calendar() ? &calendar : nullptr;
          const PlanResult result = rule.plan(request);
          if (!result.feasible()) continue;
          const TaskPlan& plan = result.plan;
          SCOPED_TRACE(testing::Message() << "sigma=" << sigma << " D=" << deadline
                                          << " busy_until=" << busy_until
                                          << " staircase=" << staircase);
          EXPECT_TRUE(plan.consistent());
          EXPECT_LE(plan.est_completion, task.abs_deadline() + 1e-6);
          EXPECT_GE(plan.nodes, 1u);
          EXPECT_LE(plan.nodes, 16u);
          // commit_time() reads the front of the sorted reservation column.
          EXPECT_EQ(plan.commit_time(), earliest_commitment(plan));
        }
      }
    }
  }
}

class EveryRule : public ::testing::TestWithParam<RuleCase> {};

TEST_P(EveryRule, FeasiblePlansAreConsistentAndMeetDeadline) {
  const auto rule = GetParam().factory();
  expect_sound_feasible_plans(*rule, paper_params());
}

TEST_P(EveryRule, HetFeasiblePlansAreConsistentAndMeetDeadline) {
  // The same grid on a heterogeneous cluster: every rule takes its
  // heterogeneous planner, whose plans pin node ids and speeds.
  const auto rule = GetParam().factory();
  cluster::ClusterParams params = paper_params();
  params.speed_profile = std::make_shared<const cluster::SpeedProfile>(
      cluster::parse_speed_profile("lognormal:0.5,3", params.node_count, params.cps));
  ASSERT_TRUE(params.heterogeneous());
  expect_sound_feasible_plans(*rule, params);
}

INSTANTIATE_TEST_SUITE_P(AllRules, EveryRule,
                         ::testing::Values(RuleCase{"DLT", &make_dlt_default},
                                           RuleCase{"OPR-MN", &make_opr_default},
                                           RuleCase{"OPR-AN", &make_opr_an_rule},
                                           RuleCase{"UserSplit", &make_user_split_rule},
                                           RuleCase{"MR2", &make_mr2},
                                           RuleCase{"OPR-MN-BF", &make_opr_mn_backfill_rule}),
                         [](const ::testing::TestParamInfo<RuleCase>& param_info) {
                           std::string name = param_info.param.label;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace rtdls::sched
