#include "sim/simulator.hpp"

#include <algorithm>
#include <iomanip>
#include <limits>
#include <stdexcept>

#include "dlt/het_model.hpp"
#include "dlt/homogeneous.hpp"
#include "dlt/multiround.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/fp.hpp"
#include "util/log.hpp"

namespace rtdls::sim {

namespace {

/// Process-registry mirrors of the per-run tallies, bumped once per run (the
/// per-event hot path only touches SimMetrics / PlannerCounters fields).
struct SimObs {
  obs::Counter runs = obs::Registry::global().counter("rtdls_sim_runs_total");
  obs::Counter arrivals = obs::Registry::global().counter("rtdls_sim_arrivals_total");
  obs::Counter accepted = obs::Registry::global().counter("rtdls_sim_accepted_total");
  obs::Counter rejected = obs::Registry::global().counter("rtdls_sim_rejected_total");
  obs::Counter resolver_walks =
      obs::Registry::global().counter("rtdls_planner_resolver_walks_total");
  obs::Counter resolver_positions =
      obs::Registry::global().counter("rtdls_planner_resolver_positions_total");
  obs::Counter batch_passes =
      obs::Registry::global().counter("rtdls_planner_batch_passes_total");
  obs::Counter fixed_point_iterations = obs::Registry::global().counter(
      "rtdls_planner_backfill_fixed_point_iterations_total");
  obs::Counter fixed_point_fallbacks = obs::Registry::global().counter(
      "rtdls_planner_backfill_fixed_point_fallbacks_total");
};

SimObs& sim_obs() {
  static SimObs handles;
  return handles;
}

}  // namespace

ClusterSimulator::ClusterSimulator(SimulatorConfig config, const sched::Algorithm& algorithm)
    : config_(config),
      algorithm_(&algorithm),
      driver_(config.params, algorithm.policy, algorithm.rule.get()) {
  driver_.set_cross_check(config_.cross_check_admission);
}

SimMetrics ClusterSimulator::run(const std::vector<workload::Task>& tasks, Time horizon) {
  if (!std::is_sorted(tasks.begin(), tasks.end(),
                      [](const workload::Task& a, const workload::Task& b) {
                        return a.arrival() < b.arrival();
                      })) {
    throw std::invalid_argument("ClusterSimulator::run: tasks not sorted by arrival");
  }
  VectorTaskSource source(tasks);
  return run_stream(source, horizon);
}

SimMetrics ClusterSimulator::run_stream(TaskSource& source, Time horizon) {
  // Reset per-run state in place (back-to-back sweep cells reuse all the
  // storage this simulator has grown).
  driver_.reset();
  algorithm_->rule->reset_planner_counters();
  channel_free_ = 0.0;
  metrics_ = SimMetrics{};
  metrics_.horizon = horizon;
  metrics_.node_count = config_.params.node_count;

  // Plans due at an arrival's instant commit before it. The source's peeked
  // pointer stays stable through the commits (loading happens inside
  // peek(), never pop() - see sim/task_source.hpp). Plans still waiting
  // after the last arrival commit in the drain, so completions and
  // utilization include work planned past the horizon.
  RTDLS_TRACE_SCOPE("sim.run", "sim");
  source_ = &source;
  const sched::CommitHook hook = [this](const workload::Task& task, const sched::TaskPlan& plan,
                                        const std::vector<cluster::NodeId>& ids) {
    record_commit(task, plan, ids);
  };
  Time last_arrival = -std::numeric_limits<Time>::infinity();
  for (const workload::Task* next = source.peek(); next != nullptr; next = source.peek()) {
    // A vector source was pre-checked by run(); a streamed trace can only
    // be validated as it flows.
    if (next->arrival() < last_arrival) {
      source_ = nullptr;
      throw std::invalid_argument("ClusterSimulator::run_stream: arrivals decrease mid-stream");
    }
    last_arrival = next->arrival();
    driver_.commit_due(last_arrival, hook);
    handle_arrival(*next);
    source.pop();
  }
  driver_.commit_due(std::numeric_limits<Time>::infinity(), hook);
  source_ = nullptr;

  if (const cluster::NodeCalendar* calendar = driver_.calendar()) {
    for (cluster::NodeId id = 0; id < calendar->size(); ++id) {
      metrics_.busy_time += calendar->busy_time(id);
    }
    // Gaps in a calendar are not "inserted" idle: any later task may still
    // backfill them, so no IIT is attributed in calendar mode.
  } else {
    metrics_.busy_time = driver_.cluster().total_busy_time();
    metrics_.idle_gap_time = driver_.cluster().total_idle_gap_time();
  }
  const auto session_peak = driver_.controller().peak_session_memory();
  metrics_.admission_peak_bytes = session_peak.bytes;
  metrics_.admission_peak_dense_bytes = session_peak.dense_equivalent_bytes;
  const sched::PlannerCounters planner = algorithm_->rule->planner_counters();
  metrics_.backfill_fixed_point_fallbacks = planner.backfill_fixed_point_fallbacks;
  metrics_.planner_resolver_walks = planner.resolver_walks;
  metrics_.planner_resolver_positions = planner.resolver_positions;
  metrics_.planner_batch_passes = planner.batch_passes;
  metrics_.backfill_fixed_point_iterations = planner.backfill_fixed_point_iterations;

  SimObs& mirrors = sim_obs();
  mirrors.runs.inc();
  mirrors.arrivals.add(metrics_.arrivals);
  mirrors.accepted.add(metrics_.accepted);
  mirrors.rejected.add(metrics_.rejected);
  mirrors.resolver_walks.add(planner.resolver_walks);
  mirrors.resolver_positions.add(planner.resolver_positions);
  mirrors.batch_passes.add(planner.batch_passes);
  mirrors.fixed_point_iterations.add(planner.backfill_fixed_point_iterations);
  mirrors.fixed_point_fallbacks.add(planner.backfill_fixed_point_fallbacks);
  return metrics_;
}

void ClusterSimulator::handle_arrival(const workload::Task& task) {
  RTDLS_TRACE_SCOPE("sim.arrival", "sim");
  ++metrics_.arrivals;
  metrics_.queue_length.add(static_cast<double>(driver_.waiting()));

  sched::AdmissionOutcome outcome;
  {
    RTDLS_TRACE_SCOPE("sim.admit_test", "sim");
    outcome = driver_.admit(task, task.arrival());
  }

  if (!outcome.accepted) {
    ++metrics_.rejected;
    ++metrics_.reject_reasons[static_cast<std::size_t>(outcome.reason)];
    RTDLS_LOG(kDebug) << "t=" << task.arrival() << " reject task " << task.id << " ("
                      << dlt::infeasibility_name(outcome.reason) << ")";
    return;
  }

  ++metrics_.accepted;
  // The waiting queue (and possibly the admission session) now hold this
  // task's pointer; pin its chunk until the commit retires it.
  source_->on_task_admitted(&task);
}

void ClusterSimulator::record_commit(const workload::Task& task, const sched::TaskPlan& plan,
                                     const std::vector<cluster::NodeId>& ids) {
  RTDLS_TRACE_SCOPE("sim.commit", "sim");
  const cluster::NodeCalendar* calendar = driver_.calendar();
  cluster::Cluster& cluster = driver_.cluster();

  // Roll out the actual timeline on the (dedicated or shared) channel.
  // Multi-round plans already carry their exact rolled-out per-node
  // finishes (built by build_multiround_schedule); re-rolling them through
  // the single-round model would be the wrong execution semantics.
  RTDLS_TRACE_SCOPE("sim.rollout", "sim");
  ActualTimeline& timeline = timeline_.input;
  // When each slot's node is done with the task: its computation ends, or
  // under the output-data extension its result has left for the head node.
  const std::vector<Time>* done = &timeline.completion;
  Time actual = 0.0;
  if (plan.rounds > 1) {
    timeline.tx_start = plan.reserve_from;
    timeline.tx_end = plan.reserve_from;
    if (config_.shared_link) {
      // The plan's MR timeline assumed a dedicated channel; re-roll the
      // installments against the channel's current occupancy so a busy
      // shared link delays them instead of being double-booked.
      if (!plan.node_cps.empty()) {
        sched::het::HetMultiRoundRollout rolled;
        sched::het::roll_multiround(config_.params, task.sigma(), plan.available,
                                    plan.node_cps, plan.rounds, channel_free_,
                                    het_roll_scratch_, rolled);
        // Slot identity survives (each slot's speed is its own); no sort.
        timeline.completion = std::move(rolled.completion);
        channel_free_ = rolled.channel_busy_until;
      } else {
        const dlt::MultiRoundSchedule rolled = dlt::build_multiround_schedule(
            config_.params, task.sigma(), plan.available, plan.rounds, channel_free_);
        timeline.completion = rolled.node_completion;
        std::sort(timeline.completion.begin(), timeline.completion.end());
        channel_free_ = rolled.channel_busy_until;
      }
    } else {
      timeline.completion = plan.node_release;
    }
    actual = timeline.task_completion();
  } else if (config_.output_ratio > 0.0) {
    const Time channel_at = config_.shared_link ? channel_free_ : 0.0;
    actual = roll_out_with_results(config_.params, task.sigma(), config_.output_ratio, plan,
                                   timeline_, channel_at);
    done = &timeline_.result_tx_end;
    if (config_.shared_link) channel_free_ = actual;
  } else {
    const Time channel_at = config_.shared_link ? channel_free_ : 0.0;
    actual = roll_out(config_.params, task.sigma(), plan, timeline, channel_at);
    if (config_.shared_link) channel_free_ = timeline.tx_end.back();
  }
  const Time estimate = plan.est_completion;

  if (config_.schedule_log != nullptr) {
    for (std::size_t i = 0; i < plan.nodes; ++i) {
      const double cps = plan.node_cps.empty() ? config_.params.cps : plan.node_cps[i];
      config_.schedule_log->add(ScheduleEntry{task.id, ids[i], plan.available[i],
                                              plan.reserve_from[i], plan.node_release[i],
                                              plan.alpha[i], cps, (*done)[i]});
    }
  }

  // The paper's two promises: the Theorem-4 estimate bounds the actual
  // completion, and an accepted task meets its deadline.
  if (!config_.shared_link && fp::after(actual, estimate, fp::kEventTolerance)) {
    ++metrics_.theorem4_violations;
    RTDLS_LOG(kError) << std::setprecision(std::numeric_limits<Time>::max_digits10)
                      << "Theorem 4 violated: task " << task.id << " actual=" << actual
                      << " estimate=" << estimate << " excess=" << actual - estimate;
  }
  if (fp::after(actual, task.abs_deadline(), fp::kEventTolerance)) {
    ++metrics_.deadline_misses;
  }

  const Time completion = config_.release_policy == ReleasePolicy::kActual && !config_.shared_link
                              ? actual
                              : estimate;
  metrics_.response_time.add(completion - task.arrival());
  metrics_.wait_time.add(plan.commit_time() - task.arrival());
  metrics_.deadline_slack.add(task.abs_deadline() - completion);
  metrics_.nodes_per_task.add(static_cast<double>(plan.nodes));
  metrics_.estimate_margin.add(estimate - actual);
  metrics_.stagger.add(plan.available.back() - plan.available.front());
  // The no-IIT reference: homogeneous E(sigma, n), or for heterogeneous
  // plans the het-optimal simultaneous allocation over the same nodes'
  // actual speeds.
  const double e_no_iit =
      plan.node_cps.empty()
          ? dlt::homogeneous_execution_time(config_.params, task.sigma(), plan.nodes)
          : dlt::general_het_execution_time(config_.params.cms, plan.node_cps, task.sigma());
  const double e_planned = plan.est_completion - plan.available.back();
  metrics_.iit_compression.add((e_no_iit - e_planned) / e_no_iit);

  if (config_.release_policy == ReleasePolicy::kActual && !config_.shared_link &&
      calendar == nullptr) {
    std::vector<Time>& at = release_at_scratch_;
    if (!plan.node_cps.empty()) {
      // Heterogeneous plans keep slot identity end to end: slot i's work ran
      // on node ids[i] at its own speed, so each node hands back exactly its
      // own unused tail (order statistics would release the wrong node when
      // speeds differ).
      at.resize(plan.nodes);
      for (std::size_t i = 0; i < plan.nodes; ++i) {
        at[i] = std::min((*done)[i], cluster.node(ids[i]).free_at());
      }
      cluster.release_early_batch(ids, at);
    } else {
      // Theorem 4: each node's actual finish is no later than the estimate
      // it was committed until; hand the unused tail back. Pair sorted
      // actual completions with the nodes sorted by committed release so
      // order statistics keep every early release valid.
      std::vector<Time>& actual_sorted = actual_sorted_scratch_;
      actual_sorted = *done;
      std::sort(actual_sorted.begin(), actual_sorted.end());
      std::vector<cluster::NodeId>& by_release = by_release_scratch_;
      by_release = ids;
      std::sort(by_release.begin(), by_release.end(),
                [&](cluster::NodeId a, cluster::NodeId b) {
                  return cluster.node(a).free_at() < cluster.node(b).free_at();
                });
      at.resize(by_release.size());
      for (std::size_t i = 0; i < by_release.size(); ++i) {
        at[i] = std::min(actual_sorted[i], cluster.node(by_release[i]).free_at());
      }
      cluster.release_early_batch(by_release, at);
    }
  }
  // Committed tasks are immutable and never re-enter the waiting queue, and
  // the driver told the session before this hook ran, so a streaming source
  // may now recycle the task's chunk.
  source_->on_task_retired(&task);
}

SimMetrics simulate(const SimulatorConfig& config, const std::string& algorithm_name,
                    const std::vector<workload::Task>& tasks, Time horizon) {
  const sched::Algorithm algorithm = sched::make_algorithm(algorithm_name);
  ClusterSimulator simulator(config, algorithm);
  return simulator.run(tasks, horizon);
}

}  // namespace rtdls::sim
