// Decision #1 of the Figure-2 framework: the task execution order.
#pragma once

#include <vector>

#include "workload/task.hpp"

namespace rtdls::sched {

/// Scheduling policy: how the temp task list is ordered.
enum class Policy {
  kEdf,   ///< earliest absolute deadline first
  kFifo,  ///< earliest arrival first
};

/// Strict-weak-order comparator for the chosen policy. Ties (equal deadline
/// or arrival) break by arrival then id so orders are deterministic.
bool policy_less(Policy policy, const workload::Task& a, const workload::Task& b);

/// Sorts task pointers by the policy (stable and deterministic).
void order_tasks(Policy policy, std::vector<const workload::Task*>& tasks);

}  // namespace rtdls::sched
