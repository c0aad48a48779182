// EDF/FIFO-DLT partitioning (Section 4.1.1): the paper's new algorithm.
//
// Node-count resolution (see NodeSearch in partition_rule.hpp):
//  * kIterative - scan n = 1..N; with rn(n) = row position n-1, take the
//    first n with n_min_tilde(rn(n)) <= n. rn(n) is nondecreasing in n and
//    n_min_tilde nondecreasing in rn, so the first crossing satisfies the
//    bound with equality (n > 1): it IS the n_min_tilde assignment, reached
//    as the least fixed point of the pseudocode's circular definition.
//  * kOptimistic - n = n_min_tilde(row front) computed once at the
//    earliest possible start; the explicit completion check then rejects
//    tasks whose n nodes only gather too late.
// The two hard-infeasibility reasons (deadline passed / pure transmission
// too long) only worsen as rn grows, so they abort the search immediately.
#include <algorithm>
#include <vector>

#include "dlt/het_model.hpp"
#include "util/fp.hpp"
#include "dlt/nmin.hpp"
#include "sched/het_planner.hpp"
#include "sched/rule_detail.hpp"

namespace rtdls::sched {

namespace {

class DltIitRule final : public het::ScratchRule {
 public:
  explicit DltIitRule(NodeSearch search) : search_(search) {}

  PlanResult plan(const PlanRequest& request) const override {
    detail::validate_request(request);
    if (request.params.heterogeneous()) return het::plan_dlt_iit(request, het_scratch_);
    const workload::Task& task = *request.task;
    const cluster::AvailabilityView& row = *request.row;
    const Time deadline = task.abs_deadline();

    auto [assigned, reason] =
        detail::resolve_node_count(search_, request.params, task.sigma(), deadline, row);
    if (reason == dlt::Infeasibility::kNeedsMoreNodes) {
      // n_min_tilde is only an UPPER bound for the IIT-utilizing execution
      // time E_hat <= E (Eq. 9). When the bound exceeds the cluster, the
      // pseudocode still assigns the task its nodes and lets the explicit
      // e_i <= A_i + D_i test decide - and with E_hat the whole cluster can
      // succeed where the bound (and OPR-MN) must give up. This clamped
      // retry is where utilizing IITs admits tasks the baseline rejects.
      assigned = row.size();
      reason = dlt::Infeasibility::kNone;
    }
    if (reason != dlt::Infeasibility::kNone) return PlanResult::infeasible(reason);

    // The row is sorted; the scratch partition avoids re-allocating the
    // model vectors on every one of the admission loop's plan() calls.
    row.fill(assigned);
    dlt::build_het_partition_into(request.params, task.sigma(), row.times(), assigned,
                                  scratch_);
    const dlt::HetPartition& part = scratch_;
    const Time est = part.estimated_completion();
    if (fp::after(est, deadline)) {
      // Live under kOptimistic (the n nodes gathered too late); a
      // floating-point guard under kIterative.
      return PlanResult::infeasible(dlt::Infeasibility::kNeedsMoreNodes);
    }

    PlanResult result;
    TaskPlan& plan = result.plan;
    plan.task = task.id;
    plan.nodes = assigned;
    plan.available = part.available;
    plan.reserve_from = part.available;  // IITs utilized: start when free
    plan.node_release.assign(assigned, est);
    plan.alpha = part.alpha;
    plan.est_completion = est;
    return result;
  }

  std::string_view name() const override { return "DLT"; }

  // Both paths reject at the row front exactly as the screen predicts: het
  // via hard_reject at position 1, homogeneous via minimum_nodes at the
  // row front (kNeedsMoreNodes is the only clamped-retried reason; the
  // screen never returns it).
  bool hard_rejects_at_front() const override { return true; }

 private:
  NodeSearch search_;
  /// Reused across plan() calls (see PartitionRule's thread-affinity note).
  mutable dlt::HetPartition scratch_;
};

}  // namespace

namespace detail {

namespace {

/// The linear scan returns the reason found at the FIRST infeasible
/// position; feasibility is monotone in rn (the slack and gamma only shrink
/// as rn grows), so that position is recovered by binary search over
/// (first_feasible, known_infeasible]. `known_reason` is the reason already
/// evaluated at the `infeasible` endpoint, so the common case (the range is
/// a single position) costs no extra n_min evaluation.
std::pair<std::size_t, dlt::Infeasibility> first_infeasible_reason(
    const cluster::ClusterParams& params, double sigma, Time deadline,
    const cluster::AvailabilityView& row, std::size_t feasible, std::size_t infeasible,
    dlt::Infeasibility known_reason) {
  std::size_t lo = feasible + 1;
  std::size_t hi = infeasible;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (dlt::minimum_nodes(params, sigma, deadline, row.at(mid - 1)).feasible()) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == infeasible) return {0, known_reason};
  return {0, dlt::minimum_nodes(params, sigma, deadline, row.at(lo - 1)).reason};
}

}  // namespace

std::pair<std::size_t, dlt::Infeasibility> resolve_node_count(
    NodeSearch search, const cluster::ClusterParams& params, double sigma, Time deadline,
    const cluster::AvailabilityView& row) {
  const std::size_t cluster_size = row.size();
  if (search == NodeSearch::kOptimistic) {
    const dlt::NminResult need = dlt::minimum_nodes(params, sigma, deadline, row.front());
    if (!need.feasible()) return {0, need.reason};
    if (need.nodes > cluster_size) return {0, dlt::Infeasibility::kNeedsMoreNodes};
    return {need.nodes, dlt::Infeasibility::kNone};
  }
  // Galloping least-fixed-point search, outcome-identical to the linear
  // n = 1..N scan. n_min_tilde(rn) is nondecreasing in rn and rn(n) (row
  // position n-1) is nondecreasing in n, so from a failing n with
  // m = n_min_tilde(rn(n)) > n every n' in (n, m) also fails
  // (n_min_tilde(rn(n')) >= m > n') and the search jumps straight to m:
  // O(log N)-ish evaluations on real availability states instead of O(N),
  // and the row fills only up to the last landing.
  std::size_t feasible_up_to = 0;  // largest position known feasible
  std::size_t n = 1;
  while (n <= cluster_size) {
    const dlt::NminResult need = dlt::minimum_nodes(params, sigma, deadline, row.at(n - 1));
    if (!need.feasible()) {
      return first_infeasible_reason(params, sigma, deadline, row, feasible_up_to, n,
                                     need.reason);
    }
    if (need.nodes <= n) return {need.nodes, dlt::Infeasibility::kNone};
    feasible_up_to = n;
    if (need.nodes > cluster_size) {
      // No position can succeed any more; the scan would still surface an
      // infeasibility if rn crosses the threshold before N.
      const dlt::NminResult at_end =
          dlt::minimum_nodes(params, sigma, deadline, row.at(cluster_size - 1));
      if (!at_end.feasible()) {
        return first_infeasible_reason(params, sigma, deadline, row, feasible_up_to,
                                       cluster_size, at_end.reason);
      }
      return {0, dlt::Infeasibility::kNeedsMoreNodes};
    }
    n = need.nodes;
  }
  return {0, dlt::Infeasibility::kNeedsMoreNodes};
}

}  // namespace detail

std::unique_ptr<PartitionRule> make_dlt_iit_rule(NodeSearch search) {
  return std::make_unique<DltIitRule>(search);
}

}  // namespace rtdls::sched
