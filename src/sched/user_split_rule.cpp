// EDF/FIFO-UserSplit (Section 4.1.2): the current-practice baseline. The
// task is split into n equal chunks where n is the *user's* request
// (Task::user_nodes, drawn uniformly from [N_min, N] at generation time and
// stable across re-tests), the chunks go to the n earliest-available nodes,
// and each node starts as soon as it is free and the channel reaches it
// (IITs utilized, but with the suboptimal equal partition).
#include <algorithm>
#include <vector>

#include "dlt/user_split.hpp"
#include "util/fp.hpp"
#include "sched/het_planner.hpp"
#include "sched/rule_detail.hpp"

namespace rtdls::sched {

namespace {

class UserSplitRule final : public het::ScratchRule {
 public:
  PlanResult plan(const PlanRequest& request) const override {
    detail::validate_request(request);
    if (request.params.heterogeneous()) return het::plan_user_split(request, het_scratch_);
    const workload::Task& task = *request.task;
    const std::vector<Time>& free_times = *request.free_times;
    const Time deadline = task.abs_deadline();

    // The "user" request; a degenerate 0 (e.g. hand-built task) means "ask
    // for the whole cluster".
    std::size_t n = task.user_nodes == 0 ? free_times.size() : task.user_nodes;
    n = std::min(n, free_times.size());

    std::vector<Time> available(free_times.begin(),
                                free_times.begin() + static_cast<std::ptrdiff_t>(n));
    const dlt::UserSplitSchedule schedule =
        dlt::build_user_split_schedule(request.params, task.sigma(), available);
    if (fp::after(schedule.task_completion(), deadline)) {
      return PlanResult::infeasible(dlt::Infeasibility::kNeedsMoreNodes);
    }

    PlanResult result;
    TaskPlan& plan = result.plan;
    plan.task = task.id;
    plan.nodes = n;
    plan.available = schedule.available;
    plan.reserve_from = schedule.available;        // node is held from its r_i
    plan.node_release = schedule.completion;       // each node frees at its own C_i
    plan.alpha.assign(n, 1.0 / static_cast<double>(n));
    plan.est_completion = schedule.task_completion();
    return result;
  }

  std::string_view name() const override { return "UserSplit"; }
};

}  // namespace

std::unique_ptr<PartitionRule> make_user_split_rule() {
  return std::make_unique<UserSplitRule>();
}

}  // namespace rtdls::sched
