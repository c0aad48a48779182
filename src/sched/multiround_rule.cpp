// Multi-round extension rule (paper Section 6 future work): node count is
// chosen exactly like the single-round DLT rule (n_min_tilde guarantees a
// deadline-meeting single-round fallback exists), then the load is delivered
// in R uniform installments whose exact rolled-out timeline usually
// completes earlier - and never later than the single-round estimate needs
// to, because feasibility is re-checked against the exact completion and
// falls back to the single-round plan when R rounds happen to be slower.
#include <algorithm>
#include <vector>

#include "dlt/multiround.hpp"
#include "util/fp.hpp"
#include "dlt/nmin.hpp"
#include "sched/het_planner.hpp"
#include "sched/rule_detail.hpp"

namespace rtdls::sched {

namespace {

class MultiRoundRule final : public het::ScratchRule {
 public:
  explicit MultiRoundRule(std::size_t rounds)
      : rounds_(rounds == 0 ? 1 : rounds),
        fallback_(make_dlt_iit_rule()),
        name_("MR" + std::to_string(rounds == 0 ? 1 : rounds)) {}

  PlanResult plan(const PlanRequest& request) const override {
    detail::validate_request(request);
    if (request.params.heterogeneous()) {
      return het::plan_multiround(request, rounds_, het_scratch_);
    }
    const workload::Task& task = *request.task;
    const cluster::AvailabilityView& row = *request.row;
    const Time deadline = task.abs_deadline();

    // Same n_min first-crossing as the single-round rules; the shared
    // resolver gallops on the sorted availability instead of scanning.
    const auto [assigned, reason] = detail::resolve_node_count(
        NodeSearch::kIterative, request.params, task.sigma(), deadline, row);
    if (reason != dlt::Infeasibility::kNone) return PlanResult::infeasible(reason);

    row.fill(assigned);
    std::vector<Time> available(row.times().begin(),
                                row.times().begin() + static_cast<std::ptrdiff_t>(assigned));
    const dlt::MultiRoundSchedule schedule = dlt::build_multiround_schedule(
        request.params, task.sigma(), available, rounds_);
    const Time est = schedule.task_completion();
    if (fp::after(est, deadline)) {
      // R installments happened to be slower here; the single-round plan
      // is guaranteed feasible with this node count.
      return fallback_->plan(request);
    }

    PlanResult result;
    TaskPlan& plan = result.plan;
    plan.task = task.id;
    plan.nodes = assigned;
    plan.available = schedule.initial_available;
    plan.reserve_from = schedule.initial_available;
    // Exact per-node finishes. Rounds may permute node identity (each
    // installment re-sorts by availability), so pair the sorted release
    // multiset with the sorted availability: since every node finishes no
    // earlier than it became available, order statistics keep
    // node_release[i] >= available[i].
    plan.node_release = schedule.node_completion;
    std::sort(plan.node_release.begin(), plan.node_release.end());
    // Aggregate per-node fraction across installments (for reporting).
    plan.alpha.assign(assigned, 0.0);
    for (const dlt::RoundPlan& round : schedule.rounds) {
      for (std::size_t i = 0; i < assigned; ++i) {
        plan.alpha[i] += round.alpha[i] / static_cast<double>(schedule.rounds.size());
      }
    }
    plan.est_completion = est;
    plan.rounds = rounds_;
    return result;
  }

  std::string_view name() const override { return name_; }

 private:
  std::size_t rounds_;
  std::unique_ptr<PartitionRule> fallback_;
  std::string name_;
};

}  // namespace

std::unique_ptr<PartitionRule> make_multiround_rule(std::size_t rounds) {
  return std::make_unique<MultiRoundRule>(rounds);
}

}  // namespace rtdls::sched
