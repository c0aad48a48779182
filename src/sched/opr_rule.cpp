// Prior-work baselines from [22] (Lin et al., RTSS'07):
//
//  * OPR-MN ("optimal partitioning rule, minimum nodes"): the task waits
//    until its n nodes are simultaneously available at r_n, wasting the
//    earlier nodes' time as Inserted Idle Time; execution time is the
//    homogeneous E(sigma, n). The n search is shared with the DLT rule
//    (the Section 4.1.1 B closed form is common to both).
//  * OPR-AN ("all nodes"): every task gets the whole cluster; tasks
//    serialize and no IITs arise, at the cost of eliminating parallelism
//    between tasks.
#include <algorithm>
#include <vector>

#include "dlt/homogeneous.hpp"
#include "util/fp.hpp"
#include "dlt/nmin.hpp"
#include "sched/het_planner.hpp"
#include "sched/rule_detail.hpp"

namespace rtdls::sched {

namespace {

/// Fills the OPR plan: all `assigned` nodes reserved from r_n to est.
TaskPlan make_opr_plan(const PlanRequest& request, std::size_t assigned) {
  const workload::Task& task = *request.task;
  const cluster::AvailabilityView& row = *request.row;
  row.fill(assigned);
  const Time rn = row.times()[assigned - 1];
  const Time est = rn + dlt::homogeneous_execution_time(request.params, task.sigma(),
                                                        assigned);
  TaskPlan plan;
  plan.task = task.id;
  plan.nodes = assigned;
  plan.available.assign(row.times().begin(),
                        row.times().begin() + static_cast<std::ptrdiff_t>(assigned));
  plan.reserve_from.assign(assigned, rn);  // simultaneous allocation: IITs wasted
  plan.node_release.assign(assigned, est);
  dlt::homogeneous_partition_into(request.params, assigned, plan.alpha);
  plan.est_completion = est;
  return plan;
}

class OprMnRule final : public het::ScratchRule {
 public:
  explicit OprMnRule(NodeSearch search) : search_(search) {}

  PlanResult plan(const PlanRequest& request) const override {
    detail::validate_request(request);
    if (request.params.heterogeneous()) return het::plan_opr_mn(request, het_scratch_);
    const workload::Task& task = *request.task;
    const Time deadline = task.abs_deadline();

    const auto [assigned, reason] = detail::resolve_node_count(
        search_, request.params, task.sigma(), deadline, *request.row);
    if (reason != dlt::Infeasibility::kNone) return PlanResult::infeasible(reason);

    PlanResult result;
    result.plan = make_opr_plan(request, assigned);
    if (fp::after(result.plan.est_completion, deadline)) {
      // Live under kOptimistic; floating-point guard under kIterative.
      return PlanResult::infeasible(dlt::Infeasibility::kNeedsMoreNodes);
    }
    return result;
  }

  std::string_view name() const override { return "OPR-MN"; }

  // Same first-position hard rejections as the DLT rule (shared
  // resolve_node_count / het scan).
  bool hard_rejects_at_front() const override { return true; }

 private:
  NodeSearch search_;
};

class OprAnRule final : public het::ScratchRule {
 public:
  PlanResult plan(const PlanRequest& request) const override {
    detail::validate_request(request);
    if (request.params.heterogeneous()) return het::plan_opr_an(request, het_scratch_);
    const workload::Task& task = *request.task;
    const std::size_t n = request.row->size();
    const Time rn = request.row->at(n - 1);  // the whole row
    const Time deadline = task.abs_deadline();

    if (deadline <= rn) return PlanResult::infeasible(dlt::Infeasibility::kDeadlinePassed);

    PlanResult result;
    result.plan = make_opr_plan(request, n);
    if (fp::after(result.plan.est_completion, deadline)) {
      return PlanResult::infeasible(dlt::Infeasibility::kNeedsMoreNodes);
    }
    return result;
  }

  std::string_view name() const override { return "OPR-AN"; }
};

}  // namespace

std::unique_ptr<PartitionRule> make_opr_mn_rule(NodeSearch search) {
  return std::make_unique<OprMnRule>(search);
}

std::unique_ptr<PartitionRule> make_opr_an_rule() {
  return std::make_unique<OprAnRule>();
}

}  // namespace rtdls::sched
