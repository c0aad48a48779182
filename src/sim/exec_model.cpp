#include "sim/exec_model.hpp"

#include <algorithm>
#include <stdexcept>
#include "util/fp.hpp"

namespace rtdls::sim {

Time ActualTimeline::task_completion() const {
  Time latest = 0.0;
  for (Time t : completion) latest = std::max(latest, t);
  return latest;
}

Time roll_out(const cluster::ClusterParams& params, double sigma, const sched::TaskPlan& plan,
              ActualTimeline& out, Time channel_available) {
  if (plan.nodes == 0) throw std::invalid_argument("roll_out: empty plan");
  if (!(sigma > 0.0)) throw std::invalid_argument("roll_out: sigma must be > 0");

  out.tx_start.resize(plan.nodes);
  out.tx_end.resize(plan.nodes);
  out.completion.resize(plan.nodes);

  Time channel_free = channel_available;
  Time latest = 0.0;
  for (std::size_t i = 0; i < plan.nodes; ++i) {
    const double tx_cost = plan.alpha[i] * sigma * params.cms;
    // Heterogeneous plans pin each slot's actual speed; homogeneous plans
    // leave node_cps empty and every slot computes at params.cps.
    const double node_cps = plan.node_cps.empty() ? params.cps : plan.node_cps[i];
    const double compute_cost = plan.alpha[i] * sigma * node_cps;
    // The chunk may not be sent before the node is reserved for the task
    // (its own available time; r_n for OPR rules) nor before the previous
    // chunk left the channel.
    const Time start = std::max(plan.reserve_from[i], channel_free);
    const Time end = start + tx_cost;
    const Time completion = end + compute_cost;
    out.tx_start[i] = start;
    out.tx_end[i] = end;
    out.completion[i] = completion;
    channel_free = end;
    latest = std::max(latest, completion);
  }
  return latest;
}

Time roll_out_with_results(const cluster::ClusterParams& params, double sigma, double delta,
                           const sched::TaskPlan& plan, ResultTimeline& out,
                           Time channel_available) {
  if (!(delta >= 0.0)) {
    throw std::invalid_argument("roll_out_with_results: delta must be >= 0");
  }
  const Time input_completion = roll_out(params, sigma, plan, out.input, channel_available);
  if (fp::exact_eq(delta, 0.0)) {
    out.result_tx_start = out.input.completion;
    out.result_tx_end = out.input.completion;
    return input_completion;
  }

  // Serve result returns in node-completion order on the shared channel,
  // which frees after the last input transmission.
  const std::vector<Time>& computed = out.input.completion;
  out.order.resize(plan.nodes);
  for (std::size_t i = 0; i < plan.nodes; ++i) out.order[i] = i;
  std::sort(out.order.begin(), out.order.end(),
            [&](std::size_t a, std::size_t b) { return computed[a] < computed[b]; });

  out.result_tx_start.resize(plan.nodes);
  out.result_tx_end.resize(plan.nodes);
  Time channel_free = out.input.tx_end.back();
  Time completion = 0.0;
  for (std::size_t i : out.order) {
    const double result_cost = delta * plan.alpha[i] * sigma * params.cms;
    out.result_tx_start[i] = std::max(computed[i], channel_free);
    out.result_tx_end[i] = out.result_tx_start[i] + result_cost;
    channel_free = out.result_tx_end[i];
    completion = std::max(completion, channel_free);
  }
  return completion;
}

}  // namespace rtdls::sim
