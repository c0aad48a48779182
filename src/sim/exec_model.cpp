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

ResultTimeline roll_out_with_results(const cluster::ClusterParams& params, double sigma,
                                     double delta, const sched::TaskPlan& plan,
                                     Time channel_available) {
  if (!(delta >= 0.0)) {
    throw std::invalid_argument("roll_out_with_results: delta must be >= 0");
  }
  ResultTimeline timeline;
  const Time input_completion = roll_out(params, sigma, plan, timeline.input, channel_available);
  if (fp::exact_eq(delta, 0.0)) {
    timeline.result_tx_start = timeline.input.completion;
    timeline.result_tx_end = timeline.input.completion;
    timeline.task_completion = input_completion;
    return timeline;
  }

  // Serve result returns in node-completion order on the shared channel,
  // which frees after the last input transmission.
  std::vector<std::size_t> order(plan.nodes);
  for (std::size_t i = 0; i < plan.nodes; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return timeline.input.completion[a] < timeline.input.completion[b];
  });

  timeline.result_tx_start.resize(plan.nodes);
  timeline.result_tx_end.resize(plan.nodes);
  Time channel_free = timeline.input.tx_end.back();
  for (std::size_t i : order) {
    const double result_cost = delta * plan.alpha[i] * sigma * params.cms;
    timeline.result_tx_start[i] = std::max(timeline.input.completion[i], channel_free);
    timeline.result_tx_end[i] = timeline.result_tx_start[i] + result_cost;
    channel_free = timeline.result_tx_end[i];
    timeline.task_completion = std::max(timeline.task_completion, channel_free);
  }
  return timeline;
}

}  // namespace rtdls::sim
