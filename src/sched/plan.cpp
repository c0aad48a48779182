#include "sched/plan.hpp"

#include <algorithm>
#include <cmath>
#include "util/fp.hpp"

namespace rtdls::sched {

bool TaskPlan::consistent() const {
  if (nodes == 0) return false;
  if (available.size() != nodes || reserve_from.size() != nodes ||
      node_release.size() != nodes || alpha.size() != nodes) {
    return false;
  }
  if (!node_ids.empty() && node_ids.size() != nodes) return false;
  if (!node_cps.empty() && node_cps.size() != nodes) return false;
  for (double cps : node_cps) {
    if (!(cps > 0.0)) return false;
  }
  if (!std::is_sorted(available.begin(), available.end())) return false;
  // commit_time() reads the minimum off the front.
  if (!std::is_sorted(reserve_from.begin(), reserve_from.end())) return false;
  double alpha_sum = 0.0;
  for (double a : alpha) {
    if (!(a > 0.0) || fp::after(a, 1.0, fp::kRelSlack)) return false;
    alpha_sum += a;
  }
  if (!fp::near(alpha_sum, 1.0)) return false;
  for (std::size_t i = 0; i < nodes; ++i) {
    // A reservation may not begin before the node is available.
    if (fp::before(reserve_from[i], available[i])) return false;
    if (fp::before(node_release[i], reserve_from[i])) return false;
  }
  return true;
}

}  // namespace rtdls::sched
