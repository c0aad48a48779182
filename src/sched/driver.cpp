#include "sched/driver.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

namespace rtdls::sched {

AdmissionDriver::AdmissionDriver(const cluster::ClusterParams& params, Policy policy,
                                 const PartitionRule* rule)
    : controller_(policy, rule), cluster_(params) {
  if (rule->uses_calendar()) calendar_.emplace(params.node_count);
}

AdmissionOutcome AdmissionDriver::admit(const workload::Task& task, Time now) {
  // A calendar rule's admission is the full test itself: nothing to check.
  std::optional<AdmissionOutcome> reference;
  if (cross_check_ && !calendar_) reference = full_test(task, now);
  AdmissionOutcome outcome =
      calendar_ ? full_test(task, now)
                : controller_.test_incremental(task, queue_.tasks, cluster_.params(),
                                               cluster_, now);
  if (outcome.accepted) {
    // The leading reused_prefix entries keep their plans and commit
    // instants; the temp schedule replaces the rest, in policy order.
    const std::size_t keep = outcome.reused_prefix;
    queue_.tasks.resize(keep);
    queue_.plans.resize(keep);
    queue_.commit_at.resize(keep);
    for (ScheduledTask& scheduled : outcome.schedule) {
      queue_.tasks.push_back(scheduled.task);
      queue_.commit_at.push_back(std::max(scheduled.plan->commit_time(), now));
      queue_.plans.push_back(std::move(scheduled.plan));
    }
  }
  if (reference) check_adopted(*reference, outcome);
  return outcome;
}

AdmissionOutcome AdmissionDriver::full_test(const workload::Task& task, Time now) const {
  const cluster::ClusterParams& params = cluster_.params();
  if (!calendar_) {
    cluster::AvailabilityRow row;
    cluster_.availability_into(now, row);
    return controller_.test(&task, queue_.tasks, params, std::move(row.times), now,
                            nullptr, std::move(row.ids));
  }
  // A node's release is the end of its last reservation (the calendar rule
  // itself plans against the gaps).
  std::vector<Time> free_times;
  free_times.reserve(calendar_->size());
  for (cluster::NodeId id = 0; id < calendar_->size(); ++id) {
    const auto& busy = calendar_->busy(id);
    free_times.push_back(std::max(now, busy.empty() ? now : busy.back().end));
  }
  return controller_.test(&task, queue_.tasks, params, std::move(free_times), now,
                          calendar());
}

void AdmissionDriver::check_adopted(const AdmissionOutcome& reference,
                                    const AdmissionOutcome& outcome) const {
  const auto fail = [](const std::string& what) {
    throw std::logic_error(
        "AdmissionDriver cross-check: the adopted queue differs from the full Figure-2 "
        "test: " + what);
  };
  if (outcome.accepted != reference.accepted) fail("acceptance");
  if (outcome.reason != reference.reason) fail("infeasibility reason");
  if (outcome.blocking_task != reference.blocking_task) fail("blocking task");
  if (!outcome.accepted) return;
  if (waiting() != reference.schedule.size()) fail("queue length");
  for (std::size_t i = 0; i < waiting(); ++i) {
    const std::string at = " at queue position " + std::to_string(i);
    if (queue_.tasks[i] != reference.schedule[i].task) fail("task" + at);
    if (!(*queue_.plans[i] == *reference.schedule[i].plan)) fail("plan" + at);
  }
}

std::size_t AdmissionDriver::commit_due(Time t, const CommitHook& hook) {
  std::size_t committed = 0;
  for (;;) {
    // The earliest due entry; the strict `<` keeps the first of a tie.
    std::size_t next = waiting();
    for (std::size_t i = 0; i < waiting(); ++i) {
      const Time at = queue_.commit_at[i];
      if (at <= t && (next == waiting() || at < queue_.commit_at[next])) next = i;
    }
    if (next == waiting()) return committed;

    const workload::Task* task = queue_.tasks[next];
    const std::shared_ptr<const TaskPlan> plan = std::move(queue_.plans[next]);
    const Time at = queue_.commit_at[next];
    erase(next);
    commit_plan(*plan, at, cluster_, calendar(), ids_);
    // The session advances past a policy-order front whose booked
    // reservations are its cached plan's releases. Calendar reservations do
    // not feed its rows, so a calendar commit drops it.
    const std::uint64_t booked = cluster_.version();
    if (calendar_) {
      controller_.invalidate();
    } else {
      controller_.on_commit(task, plan, booked);
    }
    hook(*task, *plan, ids_);
    // An early release in the hook moved availability off the plan's
    // releases, which the session may already have advanced past.
    if (cluster_.version() != booked) controller_.invalidate();
    ++committed;
  }
}

bool AdmissionDriver::cancel(cluster::TaskId id) {
  const std::size_t position = find(id);
  if (position == waiting()) return false;
  // Load only shrinks, so every remaining plan stays feasible (the Figure-2
  // invariant); but the queue changed outside the session contract, so the
  // warm session drops.
  erase(position);
  controller_.invalidate();
  return true;
}

std::size_t AdmissionDriver::find(cluster::TaskId id) const {
  const auto it = std::find_if(queue_.tasks.begin(), queue_.tasks.end(),
                               [id](const workload::Task* task) { return task->id == id; });
  return static_cast<std::size_t>(it - queue_.tasks.begin());
}

void AdmissionDriver::restore_queue(Queue queue) {
  queue_ = std::move(queue);
  controller_.invalidate();
}

void AdmissionDriver::reset() {
  queue_.tasks.clear();
  queue_.plans.clear();
  queue_.commit_at.clear();
  cluster_.reset();
  if (calendar_) calendar_->clear();
  controller_.invalidate();
  controller_.reset_session_stats();
}

void AdmissionDriver::erase(std::size_t position) {
  const auto at = static_cast<std::ptrdiff_t>(position);
  queue_.tasks.erase(queue_.tasks.begin() + at);
  queue_.plans.erase(queue_.plans.begin() + at);
  queue_.commit_at.erase(queue_.commit_at.begin() + at);
}

}  // namespace rtdls::sched
