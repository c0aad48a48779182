// Tests for TaskPlan consistency checks and EDF/FIFO ordering policies.
#include <gtest/gtest.h>

#include "sched/plan.hpp"
#include "sched/policy.hpp"

namespace rtdls::sched {
namespace {

workload::Task make_task(cluster::TaskId id, double arrival, double deadline) {
  workload::Task task;
  task.id = id;
  task.spec = {arrival, 100.0, deadline};
  return task;
}

TaskPlan make_valid_plan() {
  TaskPlan plan;
  plan.task = 1;
  plan.nodes = 2;
  plan.available = {0.0, 10.0};
  plan.reserve_from = {0.0, 10.0};
  plan.node_release = {50.0, 50.0};
  plan.alpha = {0.6, 0.4};
  plan.est_completion = 50.0;
  return plan;
}

TEST(TaskPlan, ValidPlanIsConsistent) { EXPECT_TRUE(make_valid_plan().consistent()); }

TEST(TaskPlan, SizeMismatchInconsistent) {
  TaskPlan plan = make_valid_plan();
  plan.alpha.pop_back();
  EXPECT_FALSE(plan.consistent());
  plan = make_valid_plan();
  plan.nodes = 3;
  EXPECT_FALSE(plan.consistent());
  plan = make_valid_plan();
  plan.nodes = 0;
  EXPECT_FALSE(plan.consistent());
}

TEST(TaskPlan, UnsortedAvailabilityInconsistent) {
  TaskPlan plan = make_valid_plan();
  plan.available = {10.0, 0.0};
  EXPECT_FALSE(plan.consistent());
}

TEST(TaskPlan, AlphaMustBePositiveAndSumToOne) {
  TaskPlan plan = make_valid_plan();
  plan.alpha = {0.5, 0.4};
  EXPECT_FALSE(plan.consistent());
  plan = make_valid_plan();
  plan.alpha = {1.2, -0.2};
  EXPECT_FALSE(plan.consistent());
}

TEST(TaskPlan, ReservationBeforeAvailabilityInconsistent) {
  TaskPlan plan = make_valid_plan();
  plan.reserve_from = {0.0, 5.0};  // node 2 reserved before it frees at 10
  EXPECT_FALSE(plan.consistent());
}

TEST(TaskPlan, ReleaseBeforeReservationInconsistent) {
  TaskPlan plan = make_valid_plan();
  plan.node_release = {50.0, 5.0};
  EXPECT_FALSE(plan.consistent());
}

TEST(TaskPlan, CommitTimeIsEarliestReservation) {
  TaskPlan plan = make_valid_plan();
  EXPECT_DOUBLE_EQ(plan.commit_time(), 0.0);
  plan.reserve_from = {20.0, 30.0};
  plan.available = {20.0, 30.0};
  EXPECT_DOUBLE_EQ(plan.commit_time(), 20.0);
}

TEST(Policy, EdfOrdersByAbsoluteDeadline) {
  const workload::Task early = make_task(1, 100.0, 50.0);   // abs 150
  const workload::Task late = make_task(2, 0.0, 400.0);     // abs 400
  EXPECT_TRUE(policy_less(Policy::kEdf, early, late));
  EXPECT_FALSE(policy_less(Policy::kEdf, late, early));
}

TEST(Policy, FifoOrdersByArrival) {
  const workload::Task first = make_task(1, 0.0, 400.0);
  const workload::Task second = make_task(2, 100.0, 50.0);  // earlier deadline!
  EXPECT_TRUE(policy_less(Policy::kFifo, first, second));
  EXPECT_FALSE(policy_less(Policy::kFifo, second, first));
}

TEST(Policy, TiesBreakByArrivalThenId) {
  const workload::Task a = make_task(3, 10.0, 100.0);
  const workload::Task b = make_task(4, 10.0, 100.0);
  EXPECT_TRUE(policy_less(Policy::kEdf, a, b));  // same deadline+arrival: id
  const workload::Task c = make_task(5, 5.0, 105.0);  // same abs deadline 110
  EXPECT_TRUE(policy_less(Policy::kEdf, c, a));       // earlier arrival first
}

TEST(Policy, OrderTasksSortsFullList) {
  const workload::Task t1 = make_task(1, 0.0, 500.0);
  const workload::Task t2 = make_task(2, 10.0, 100.0);
  const workload::Task t3 = make_task(3, 20.0, 300.0);
  std::vector<const workload::Task*> tasks{&t1, &t2, &t3};

  order_tasks(Policy::kEdf, tasks);
  EXPECT_EQ(tasks[0]->id, 2u);  // abs 110
  EXPECT_EQ(tasks[1]->id, 3u);  // abs 320
  EXPECT_EQ(tasks[2]->id, 1u);  // abs 500

  order_tasks(Policy::kFifo, tasks);
  EXPECT_EQ(tasks[0]->id, 1u);
  EXPECT_EQ(tasks[1]->id, 2u);
  EXPECT_EQ(tasks[2]->id, 3u);
}

}  // namespace
}  // namespace rtdls::sched
