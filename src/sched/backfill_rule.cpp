// OPR-MN with conservative backfilling (the comparator the paper's related
// work positions itself against, [21, 24, 29] adapted to divisible loads):
//
// Planning scans the calendar's candidate start times t (reservation edges);
// at each t it computes m = n_min_tilde(rn = t) from the shared Section
// 4.1.1 B closed form and takes the first t where m nodes are simultaneously
// free over [t, t + E(sigma, m)). Unlike the paper's release-time framework,
// the window may sit in a gap IN FRONT of existing reservations - that is
// the backfilling. Execution still allocates all m nodes simultaneously with
// the homogeneous optimal partition (no IIT utilization within the task).
#include <algorithm>
#include <vector>

#include "dlt/homogeneous.hpp"
#include "util/fp.hpp"
#include "dlt/nmin.hpp"
#include "sched/het_planner.hpp"
#include "sched/rule_detail.hpp"

namespace rtdls::sched {

namespace {

class OprMnBackfillRule final : public het::ScratchRule {
 public:
  PlanResult plan(const PlanRequest& request) const override {
    detail::validate_request(request);
    if (request.calendar == nullptr) {
      throw std::invalid_argument("OprMnBackfillRule: PlanRequest::calendar required");
    }
    if (request.params.heterogeneous()) {
      return het::plan_opr_mn_backfill(request, het_scratch_);
    }
    const workload::Task& task = *request.task;
    const cluster::NodeCalendar& calendar = *request.calendar;
    const Time deadline = task.abs_deadline();

    for (Time t : calendar.candidate_times(request.now)) {
      const dlt::NminResult need =
          dlt::minimum_nodes(request.params, task.sigma(), deadline, t);
      if (!need.feasible()) {
        // Later candidates only shrink the slack further: hard stop.
        return PlanResult::infeasible(need.reason);
      }
      if (need.nodes > calendar.size()) {
        // n_min only grows with t: no later candidate can need fewer nodes.
        return PlanResult::infeasible(dlt::Infeasibility::kNeedsMoreNodes);
      }
      std::size_t m = need.nodes;
      double duration =
          dlt::homogeneous_execution_time(request.params, task.sigma(), m);
      if (fp::after(t + duration, deadline)) {
        // n_min's "accept n-1 within 1e-12 relative slack" nudge can make
        // E(m) overshoot the deadline by more than the 1e-9 tolerance at
        // large time magnitudes. That makes only this node count tight, not
        // the whole scan hopeless: one extra node restores the un-nudged
        // bound; failing even that, try the next edge rather than reject.
        if (m >= calendar.size()) continue;
        const double retry =
            dlt::homogeneous_execution_time(request.params, task.sigma(), m + 1);
        if (fp::after(t + retry, deadline)) continue;
        m += 1;
        duration = retry;
      }

      // Are m nodes simultaneously free over [t, t + duration)?
      std::vector<cluster::NodeId> nodes;
      for (cluster::NodeId id = 0; id < calendar.size() && nodes.size() < m; ++id) {
        if (calendar.is_free(id, t, t + duration)) nodes.push_back(id);
      }
      if (nodes.size() < m) continue;  // this edge is too crowded; try the next

      PlanResult result;
      TaskPlan& plan = result.plan;
      plan.task = task.id;
      plan.nodes = m;
      plan.available.assign(m, t);
      plan.reserve_from.assign(m, t);
      plan.node_release.assign(m, t + duration);
      dlt::homogeneous_partition_into(request.params, m, plan.alpha);
      plan.est_completion = t + duration;
      plan.node_ids = std::move(nodes);
      return result;
    }
    return PlanResult::infeasible(dlt::Infeasibility::kNeedsMoreNodes);
  }

  std::string_view name() const override { return "OPR-MN-BF"; }
  bool uses_calendar() const override { return true; }
};

}  // namespace

std::unique_ptr<PartitionRule> make_opr_mn_backfill_rule() {
  return std::make_unique<OprMnBackfillRule>();
}

}  // namespace rtdls::sched
