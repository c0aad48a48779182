// sched::AdmissionDriver: due plans commit earliest first, ties by queue
// position; the armed cross-check holds every queue the driver adopts to
// the full Figure-2 test through commits, cancels, a restore and early
// releases; and the simulator and the daemon's admission shard, which both
// drive it, accept the same tasks of one trace and reject the rest for the
// same reasons.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <deque>
#include <limits>
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
  sched::AdmissionDriver driver(params, algorithm.policy, algorithm.rule.get());
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
  sched::AdmissionDriver driver(params, algorithm.policy, algorithm.rule.get());
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

TEST(AdmissionDriver, CrossCheckHoldsThroughCommitsCancelsAndARestore) {
  // The daemon's kind of request script (admits, explicit commits, cancels,
  // some of tasks no longer waiting) straight on a cross-check-armed driver,
  // which throws unless every queue it adopts is the full Figure-2 test's.
  // Past halfway, once two tasks wait, the queue is restored from copies of
  // its plans, as a snapshot restore decodes them: the session drops, and
  // the copies it never handed out must still commit and be re-planned
  // exactly.
  for (const char* name : {"EDF-DLT", "FIFO-OPR-MN", "EDF-MR2"}) {
    for (const bool heterogeneous : {false, true}) {
      SCOPED_TRACE(std::string(name) + (heterogeneous ? " het" : " hom"));
      cluster::ClusterParams params{.node_count = 8, .cms = 1.0, .cps = 100.0};
      if (heterogeneous) {
        params.speed_profile = std::make_shared<const cluster::SpeedProfile>(
            cluster::parse_speed_profile("lognormal:0.5,3", 8, 100.0));
      }
      const sched::Algorithm algorithm = sched::make_algorithm(name);
      sched::AdmissionDriver driver(params, algorithm.policy, algorithm.rule.get());
      driver.set_cross_check(true);
      const sched::CommitHook ignore = [](const workload::Task&, const sched::TaskPlan&,
                                          const std::vector<cluster::NodeId>&) {};
      std::deque<workload::Task> tasks;  // stable addresses
      cluster::Time now = 0.0;
      std::size_t accepted = 0, rejected = 0, committed = 0, cancelled = 0;
      bool restored = false;
      for (std::size_t step = 0; step < 80; ++step) {
        if (!restored && step >= 40 && driver.waiting() > 1) {
          sched::AdmissionDriver::Queue queue = driver.queue();
          for (auto& plan : queue.plans) {
            plan = std::make_shared<const sched::TaskPlan>(*plan);
          }
          driver.restore_queue(std::move(queue));
          restored = true;
        }
        if (step % 5 == 4) {
          const auto id = static_cast<cluster::TaskId>(step);  // may not be waiting
          const std::size_t position = driver.find(id);
          if (position == driver.waiting()) continue;
          if (step % 10 == 9) {
            cancelled += driver.cancel(id) ? 1 : 0;
          } else {
            now = std::max(now, driver.queue().commit_at[position]);
            committed += driver.commit_due(now, ignore);
          }
          continue;
        }
        workload::Task& task = tasks.emplace_back();
        task.id = static_cast<cluster::TaskId>(step + 1);
        task.spec = {.arrival = static_cast<double>(step) * 1000.0,
                     .sigma = 120.0 + static_cast<double>(step % 7) * 25.0,
                     .rel_deadline = 15000.0 + static_cast<double>(step % 3) * 3000.0};
        now = std::max(now, task.arrival());
        committed += driver.commit_due(now, ignore);
        if (driver.admit(task, now).accepted) {
          ++accepted;
        } else {
          ++rejected;
        }
      }
      committed +=
          driver.commit_due(std::numeric_limits<cluster::Time>::infinity(), ignore);
      EXPECT_TRUE(restored);
      EXPECT_GT(rejected, 0u);
      EXPECT_GT(cancelled, 0u);
      EXPECT_EQ(committed + cancelled, accepted);
    }
  }
}

TEST(AdmissionDriver, CrossCheckHoldsUnderEarlyReleases) {
  // The N=16 digest trace keeps tasks waiting while --release actual frees
  // nodes early, so the session drops and rebuilds with the driver still
  // holding plans it adopted before. Every non-calendar rule, EDF and FIFO,
  // hom and het, with the cross-check armed: each adopted queue, its kept
  // prefix included, must be the full Figure-2 test's.
  const std::vector<workload::Task> tasks =
      workload::load_trace_file(kDataDir + "/digest_trace_n16.csv");
  ASSERT_FALSE(tasks.empty());
  cluster::ClusterParams hom{.node_count = 16, .cms = 1.0, .cps = 100.0};
  cluster::ClusterParams het = hom;
  het.speed_profile = std::make_shared<const cluster::SpeedProfile>(
      cluster::parse_speed_profile("csv:" + kDataDir + "/digest_speeds_n16.csv", 16,
                                   100.0));
  for (const bool heterogeneous : {false, true}) {
    for (const char* rule : {"DLT", "DLT-Opt", "OPR-MN", "OPR-MN-Opt", "OPR-AN",
                             "UserSplit", "MR2", "MR4"}) {
      for (const char* policy : {"EDF", "FIFO"}) {
        const std::string name = std::string(policy) + "-" + rule;
        SCOPED_TRACE(name + (heterogeneous ? " het" : " hom"));
        sim::SimulatorConfig config;
        config.params = heterogeneous ? het : hom;
        config.release_policy = sim::ReleasePolicy::kActual;
        config.cross_check_admission = true;
        const sim::SimMetrics metrics =
            sim::simulate(config, name, tasks, tasks.back().arrival());
        EXPECT_GT(metrics.queue_length.max(), 1.0);
        EXPECT_EQ(metrics.deadline_misses, 0u);
        EXPECT_EQ(metrics.theorem4_violations, 0u);
      }
    }
  }
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
