#include "sched/policy.hpp"

#include <algorithm>

namespace rtdls::sched {

bool policy_less(Policy policy, const workload::Task& a, const workload::Task& b) {
  if (policy == Policy::kEdf) {
    if (a.abs_deadline() != b.abs_deadline()) return a.abs_deadline() < b.abs_deadline();
  }
  if (a.arrival() != b.arrival()) return a.arrival() < b.arrival();
  return a.id < b.id;
}

void order_tasks(Policy policy, std::vector<const workload::Task*>& tasks) {
  std::sort(tasks.begin(), tasks.end(),
            [policy](const workload::Task* a, const workload::Task* b) {
              return policy_less(policy, *a, *b);
            });
}

}  // namespace rtdls::sched
