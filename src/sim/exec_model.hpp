// Actual-execution rollout of a committed plan: the head node transmits
// chunks sequentially in plan order; node i's transmission starts once the
// node is usable (reserve_from[i]) and the channel is free; computation
// follows immediately, at params.cps or, under a heterogeneous plan, at the
// node's own speed.
//
// For DLT-IIT plans this is exactly the timeline of Theorem 4's proof, so
//   max_i completion_i <= plan.est_completion
// must hold - the simulator validates it for every committed task, turning
// the paper's central theorem into a continuously-checked invariant.
#pragma once

#include "dlt/params.hpp"
#include "sched/plan.hpp"

namespace rtdls::sim {

using cluster::Time;

/// Exact per-node execution timeline of one task. Under a heterogeneous
/// plan (TaskPlan::node_cps set) each slot computes at its own node's
/// actual speed; otherwise every slot uses params.cps.
struct ActualTimeline {
  std::vector<Time> tx_start;    ///< when node i's chunk starts transmitting
  std::vector<Time> tx_end;      ///< tx_start + alpha_i * sigma * Cms
  std::vector<Time> completion;  ///< tx_end + alpha_i * sigma * cps_i

  /// Actual task completion: the last node's finish.
  Time task_completion() const;
};

/// Rolls out `plan` for a task of size `sigma` into `out`, the caller's
/// storage (its columns' capacity reused), and returns the actual task
/// completion, out.task_completion(), computed in the same pass.
///
/// `channel_available`: earliest time the head node's link may serve this
/// task. The paper's model dedicates the link to the task from its start
/// (pass 0 / any time <= the first reserve_from); the shared-link ablation
/// passes the global channel-free time instead.
Time roll_out(const cluster::ClusterParams& params, double sigma, const sched::TaskPlan& plan,
              ActualTimeline& out, Time channel_available = 0.0);

/// Timeline including the result-collection phase (output-data extension).
struct ResultTimeline {
  ActualTimeline input;               ///< input transmissions + computation
  std::vector<Time> result_tx_start;  ///< per node; served in node-completion order
  std::vector<Time> result_tx_end;
  std::vector<std::size_t> order;     ///< the result-return order (slot indices)
};

/// Rolls out `plan` including result returns into `out`, the caller's
/// storage (its columns' capacity reused), and returns the actual task
/// completion: when the last result reaches the head node, i.e. the maximum
/// of out.result_tx_end. Each node sends back delta * alpha_i * sigma units
/// over the same sequential channel, served in the order nodes finish
/// computing. The completion is guaranteed <= output_completion_bound(params,
/// sigma, delta, plan.est input bound); property-tested in extensions_test.
Time roll_out_with_results(const cluster::ClusterParams& params, double sigma, double delta,
                           const sched::TaskPlan& plan, ResultTimeline& out,
                           Time channel_available = 0.0);

}  // namespace rtdls::sim
