// Tests for the Figure-2 schedulability test (AdmissionController).
#include <gtest/gtest.h>

#include "sched/admission.hpp"

namespace rtdls::sched {
namespace {

cluster::ClusterParams paper_params() {
  return {.node_count = 16, .cms = 1.0, .cps = 100.0};
}

workload::Task make_task(cluster::TaskId id, double arrival, double sigma, double deadline,
                         std::size_t user_nodes = 0) {
  workload::Task task;
  task.id = id;
  task.spec = {arrival, sigma, deadline};
  task.user_nodes = user_nodes;
  return task;
}

std::vector<cluster::Time> idle_cluster() { return std::vector<cluster::Time>(16, 0.0); }

TEST(Admission, NullRuleRejectedAtConstruction) {
  EXPECT_THROW(AdmissionController(Policy::kEdf, nullptr), std::invalid_argument);
}

TEST(Admission, SingleTaskAccepted) {
  const auto rule = make_dlt_iit_rule();
  AdmissionController controller(Policy::kEdf, rule.get());
  const workload::Task task = make_task(1, 0.0, 200.0, 3000.0);
  const AdmissionOutcome outcome =
      controller.test(&task, {}, paper_params(), idle_cluster(), 0.0);
  ASSERT_TRUE(outcome.accepted);
  ASSERT_EQ(outcome.schedule.size(), 1u);
  EXPECT_EQ(outcome.schedule[0].task->id, 1u);
  EXPECT_LE(outcome.schedule[0].plan->est_completion, 3000.0 + 1e-9);
}

TEST(Admission, ImpossibleTaskRejectedWithReason) {
  const auto rule = make_dlt_iit_rule();
  AdmissionController controller(Policy::kEdf, rule.get());
  const workload::Task task = make_task(1, 0.0, 200.0, 150.0);  // < sigma*Cms
  const AdmissionOutcome outcome =
      controller.test(&task, {}, paper_params(), idle_cluster(), 0.0);
  EXPECT_FALSE(outcome.accepted);
  EXPECT_EQ(outcome.reason, dlt::Infeasibility::kTransmissionTooLong);
  EXPECT_EQ(outcome.blocking_task, 1u);
  EXPECT_TRUE(outcome.schedule.empty());
}

TEST(Admission, FreeTimePropagationSerializesBigTasks) {
  // Two cluster-filling tasks: the second must be planned after the first's
  // estimated completion.
  const auto rule = make_dlt_iit_rule();
  AdmissionController controller(Policy::kFifo, rule.get());
  const workload::Task first = make_task(1, 0.0, 200.0, 1500.0);   // needs ~16 nodes
  const workload::Task second = make_task(2, 0.0, 200.0, 30000.0);
  const AdmissionOutcome outcome =
      controller.test(&second, {&first}, paper_params(), idle_cluster(), 0.0);
  ASSERT_TRUE(outcome.accepted);
  ASSERT_EQ(outcome.schedule.size(), 2u);
  EXPECT_EQ(outcome.schedule[0].task->id, 1u);
  const sched::TaskPlan& plan1 = *outcome.schedule[0].plan;
  const sched::TaskPlan& plan2 = *outcome.schedule[1].plan;
  // Task 2's earliest node availability is task 1's release of some node.
  EXPECT_GE(plan2.available.front() + 1e-9,
            plan1.nodes == 16 ? plan1.est_completion : 0.0);
}

TEST(Admission, EdfReordersQueue) {
  const auto rule = make_dlt_iit_rule();
  AdmissionController controller(Policy::kEdf, rule.get());
  // Waiting task with a LOOSE deadline; new task with a TIGHT one. Under
  // EDF the new task is planned first even though it arrived later.
  const workload::Task waiting = make_task(1, 0.0, 200.0, 50000.0);
  const workload::Task urgent = make_task(2, 10.0, 200.0, 2000.0);
  const AdmissionOutcome outcome =
      controller.test(&urgent, {&waiting}, paper_params(), idle_cluster(), 10.0);
  ASSERT_TRUE(outcome.accepted);
  ASSERT_EQ(outcome.schedule.size(), 2u);
  EXPECT_EQ(outcome.schedule[0].task->id, 2u);  // urgent first
  EXPECT_EQ(outcome.schedule[1].task->id, 1u);
}

TEST(Admission, FifoKeepsArrivalOrder) {
  const auto rule = make_dlt_iit_rule();
  AdmissionController controller(Policy::kFifo, rule.get());
  const workload::Task waiting = make_task(1, 0.0, 200.0, 50000.0);
  const workload::Task urgent = make_task(2, 10.0, 200.0, 2500.0);
  const AdmissionOutcome outcome =
      controller.test(&urgent, {&waiting}, paper_params(), idle_cluster(), 10.0);
  ASSERT_TRUE(outcome.accepted);
  EXPECT_EQ(outcome.schedule[0].task->id, 1u);
}

TEST(Admission, NewTaskRejectedWhenItWouldBreakAdmittedTask) {
  const auto rule = make_dlt_iit_rule();
  AdmissionController controller(Policy::kEdf, rule.get());
  // Admitted task with a deadline that only just works on the idle cluster.
  const workload::Task admitted = make_task(1, 0.0, 200.0, 1400.0);  // ~E(200,16)
  const AdmissionOutcome alone =
      controller.test(&admitted, {}, paper_params(), idle_cluster(), 0.0);
  ASSERT_TRUE(alone.accepted);

  // A new, even more urgent task that would displace it under EDF.
  const workload::Task intruder = make_task(2, 0.0, 200.0, 1390.0);
  const AdmissionOutcome outcome =
      controller.test(&intruder, {&admitted}, paper_params(), idle_cluster(), 0.0);
  EXPECT_FALSE(outcome.accepted);
  // The victim is the previously admitted task, planned after the intruder.
  EXPECT_EQ(outcome.blocking_task, 1u);
}

TEST(Admission, ValidateQueueWithoutNewTask) {
  const auto rule = make_dlt_iit_rule();
  AdmissionController controller(Policy::kEdf, rule.get());
  const workload::Task a = make_task(1, 0.0, 200.0, 4000.0);
  const workload::Task b = make_task(2, 0.0, 200.0, 9000.0);
  const AdmissionOutcome outcome =
      controller.test(nullptr, {&a, &b}, paper_params(), idle_cluster(), 0.0);
  ASSERT_TRUE(outcome.accepted);
  EXPECT_EQ(outcome.schedule.size(), 2u);
}

TEST(Admission, EmptyTestTriviallyAccepts) {
  const auto rule = make_dlt_iit_rule();
  AdmissionController controller(Policy::kEdf, rule.get());
  const AdmissionOutcome outcome =
      controller.test(nullptr, {}, paper_params(), idle_cluster(), 0.0);
  EXPECT_TRUE(outcome.accepted);
  EXPECT_TRUE(outcome.schedule.empty());
}

TEST(Admission, FreeTimesFlooredAtNow) {
  const auto rule = make_dlt_iit_rule();
  AdmissionController controller(Policy::kEdf, rule.get());
  // Stale free times in the past must not let a task start before `now`.
  std::vector<cluster::Time> stale(16, 0.0);
  const workload::Task task = make_task(1, 500.0, 200.0, 3000.0);
  const AdmissionOutcome outcome =
      controller.test(&task, {}, paper_params(), stale, 500.0);
  ASSERT_TRUE(outcome.accepted);
  EXPECT_GE(outcome.schedule[0].plan->available.front(), 500.0);
}

TEST(Admission, MismatchedFreeTimesThrow) {
  const auto rule = make_dlt_iit_rule();
  AdmissionController controller(Policy::kEdf, rule.get());
  const workload::Task task = make_task(1, 0.0, 200.0, 3000.0);
  std::vector<cluster::Time> wrong(4, 0.0);
  EXPECT_THROW(controller.test(&task, {}, paper_params(), wrong, 0.0),
               std::invalid_argument);
}

TEST(Admission, NoNodeOversubscription) {
  // Across the accepted schedule, reconstruct per-slot usage: each planning
  // step consumes the k earliest free slots; verify the released times are
  // consistent (every reservation starts at or after the slot's free time).
  const auto rule = make_user_split_rule();
  AdmissionController controller(Policy::kFifo, rule.get());
  const workload::Task a = make_task(1, 0.0, 200.0, 30000.0, 10);
  const workload::Task b = make_task(2, 0.0, 200.0, 30000.0, 10);
  const workload::Task c = make_task(3, 0.0, 200.0, 30000.0, 12);
  const AdmissionOutcome outcome =
      controller.test(&c, {&a, &b}, paper_params(), idle_cluster(), 0.0);
  ASSERT_TRUE(outcome.accepted);

  std::vector<cluster::Time> slots(16, 0.0);
  for (const ScheduledTask& scheduled : outcome.schedule) {
    std::sort(slots.begin(), slots.end());
    for (std::size_t i = 0; i < scheduled.plan->nodes; ++i) {
      EXPECT_GE(scheduled.plan->reserve_from[i] + 1e-9, slots[i])
          << "task " << scheduled.task->id << " slot " << i;
      slots[i] = scheduled.plan->node_release[i];
    }
  }
}

}  // namespace
}  // namespace rtdls::sched
