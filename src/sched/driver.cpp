#include "sched/driver.hpp"

#include <algorithm>
#include <cstdint>

namespace rtdls::sched {

AdmissionDriver::AdmissionDriver(const cluster::ClusterParams& params, Policy policy,
                                 const PartitionRule* rule, bool incremental)
    : controller_(policy, rule), cluster_(params), incremental_(incremental) {
  if (rule->uses_calendar()) calendar_.emplace(params.node_count);
}

AdmissionOutcome AdmissionDriver::admit(const workload::Task& task, Time now) {
  AdmissionOutcome outcome = controller_.admit(task, queue_.tasks, cluster_.params(), cluster_,
                                               calendar(), now, incremental_);
  if (!outcome.accepted) return outcome;
  // The leading reused_prefix entries keep their plans and commit instants;
  // the temp schedule replaces the rest, in policy order.
  const std::size_t keep = outcome.reused_prefix;
  queue_.tasks.resize(keep);
  queue_.plans.resize(keep);
  queue_.commit_at.resize(keep);
  for (ScheduledTask& scheduled : outcome.schedule) {
    queue_.tasks.push_back(scheduled.task);
    queue_.commit_at.push_back(std::max(scheduled.plan->commit_time(), now));
    queue_.plans.push_back(std::move(scheduled.plan));
  }
  return outcome;
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
