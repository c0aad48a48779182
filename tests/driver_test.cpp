// sched::AdmissionDriver: due plans commit earliest first, ties by queue
// position; and the simulator and the daemon's admission shard, which both
// drive it, accept the same tasks of one trace and reject the rest for the
// same reasons.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cluster/speed_profile.hpp"
#include "sched/driver.hpp"
#include "sched/registry.hpp"
#include "sim/schedule_log.hpp"
#include "sim/simulator.hpp"
#include "svc/shard.hpp"
#include "workload/trace.hpp"

namespace rtdls {
namespace {

const std::string kDataDir = RTDLS_TEST_DATA_DIR;

TEST(AdmissionDriver, CommitsDuePlansEarliestFirstTiesByQueuePosition) {
  // Two bursts on four nodes. The first task of a burst needs all four
  // nodes; the four small tasks behind it each plan on one node from its
  // release, so they share a commit instant, and EDF orders them apart
  // from their arrivals.
  const cluster::ClusterParams params{.node_count = 4, .cms = 1.0, .cps = 100.0};
  const sched::Algorithm algorithm = sched::make_algorithm("EDF-DLT");
  sched::AdmissionDriver driver(params, algorithm.policy, algorithm.rule.get(),
                                /*incremental=*/true);
  std::vector<workload::Task> tasks;
  for (const double base : {0.0, 10000.0}) {
    for (const auto& [sigma, deadline] : {std::pair{200.0, 6000.0}, std::pair{20.0, 9000.0},
                                          std::pair{20.0, 8000.0}, std::pair{20.0, 8500.0},
                                          std::pair{20.0, 7500.0}}) {
      workload::Task task;
      task.id = tasks.size() + 1;
      task.spec = {.arrival = base, .sigma = sigma, .rel_deadline = deadline};
      tasks.push_back(task);
    }
  }

  std::size_t ties = 0;
  std::size_t committed = 0;
  const auto commit_due = [&](cluster::Time t) {
    // Expected: the due entries, stably sorted by commit instant.
    const sched::AdmissionDriver::Queue& queue = driver.queue();
    std::vector<std::pair<cluster::Time, cluster::TaskId>> expected;
    for (std::size_t i = 0; i < queue.tasks.size(); ++i) {
      const cluster::Time at = queue.commit_at[i];
      if (at <= t) expected.emplace_back(at, queue.tasks[i]->id);
    }
    std::stable_sort(expected.begin(), expected.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
    for (std::size_t i = 1; i < expected.size(); ++i) {
      if (expected[i].first == expected[i - 1].first) ++ties;
    }
    std::vector<cluster::TaskId> order;
    const std::size_t count = driver.commit_due(
        t, [&](const workload::Task& task, const sched::TaskPlan& plan,
               const std::vector<cluster::NodeId>& ids) {
          EXPECT_EQ(plan.task, task.id);
          EXPECT_EQ(ids.size(), plan.nodes);
          order.push_back(task.id);
        });
    ASSERT_EQ(count, expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(order[i], expected[i].second) << "commit " << i << " at t=" << t;
    }
    for (const cluster::Time at : driver.queue().commit_at) EXPECT_GT(at, t);
    committed += count;
  };

  std::size_t accepted = 0;
  for (const workload::Task& task : tasks) {
    commit_due(task.arrival());
    if (driver.admit(task, task.arrival()).accepted) ++accepted;
    ASSERT_EQ(driver.waiting(), driver.queue().plans.size());
    ASSERT_EQ(driver.waiting(), driver.queue().commit_at.size());
  }
  for (cluster::Time t = 1000.0; driver.waiting() > 0; t += 1000.0) commit_due(t);
  EXPECT_EQ(accepted, tasks.size());
  EXPECT_EQ(committed, accepted);
  EXPECT_GE(ties, 6u);
}

TEST(AdmissionDriver, CancelDropsOnlyAWaitingTask) {
  const cluster::ClusterParams params{.node_count = 4, .cms = 1.0, .cps = 100.0};
  const sched::Algorithm algorithm = sched::make_algorithm("EDF-DLT");
  sched::AdmissionDriver driver(params, algorithm.policy, algorithm.rule.get(),
                                /*incremental=*/true);
  workload::Task first;
  first.id = 1;
  first.spec = {.arrival = 0.0, .sigma = 200.0, .rel_deadline = 30000.0};
  workload::Task second = first;
  second.id = 2;
  ASSERT_TRUE(driver.admit(first, 0.0).accepted);
  ASSERT_TRUE(driver.admit(second, 0.0).accepted);
  EXPECT_EQ(driver.find(3), driver.waiting());
  EXPECT_FALSE(driver.cancel(3));
  EXPECT_TRUE(driver.cancel(1));
  EXPECT_EQ(driver.waiting(), 1u);
  EXPECT_EQ(driver.find(2), 0u);
  EXPECT_FALSE(driver.cancel(1));
}

TEST(DriverParity, SimulatorAndShardAcceptTheSameTasks) {
  const std::vector<workload::Task> tasks =
      workload::load_trace_file(kDataDir + "/digest_trace_n16.csv");
  ASSERT_FALSE(tasks.empty());
  cluster::ClusterParams hom{.node_count = 16, .cms = 1.0, .cps = 100.0};
  cluster::ClusterParams het = hom;
  het.speed_profile = std::make_shared<const cluster::SpeedProfile>(
      cluster::parse_speed_profile("csv:" + kDataDir + "/digest_speeds_n16.csv", 16, 100.0));

  for (const bool heterogeneous : {false, true}) {
    const cluster::ClusterParams& params = heterogeneous ? het : hom;
    for (const char* rule : {"DLT", "MR2", "OPR-MN-BF"}) {
      for (const char* policy : {"EDF", "FIFO"}) {
        const std::string name = std::string(policy) + "-" + rule;
        SCOPED_TRACE(name + (heterogeneous ? " het" : " hom"));

        sim::ScheduleLog log;
        sim::SimulatorConfig config;
        config.params = params;
        config.schedule_log = &log;
        const sched::Algorithm algorithm = sched::make_algorithm(name);
        sim::ClusterSimulator simulator(config, algorithm);
        const sim::SimMetrics metrics = simulator.run(tasks, tasks.back().arrival());
        std::set<cluster::TaskId> logged;
        for (const sim::ScheduleEntry& entry : log.entries()) logged.insert(entry.task);

        svc::AdmissionShard shard(name, svc::ShardConfig{params});
        std::set<cluster::TaskId> accepted;
        std::array<std::size_t, 4> reasons{};
        for (const workload::Task& task : tasks) {
          const svc::AdmitReply reply = shard.admit(svc::TaskRecord::from_task(task));
          if (reply.accepted) {
            accepted.insert(task.id);
          } else {
            ASSERT_LT(reply.reason, reasons.size());
            ++reasons[reply.reason];
          }
        }

        EXPECT_FALSE(accepted.empty());
        EXPECT_EQ(logged, accepted);
        EXPECT_EQ(metrics.accepted, accepted.size());
        EXPECT_EQ(metrics.reject_reasons, reasons);
      }
    }
  }
}

}  // namespace
}  // namespace rtdls
