#include "sim/simulator.hpp"

#include <algorithm>
#include <stdexcept>

#include "dlt/het_model.hpp"
#include "dlt/homogeneous.hpp"
#include "dlt/multiround.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/exec_model.hpp"
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
      controller_(algorithm.policy, algorithm.rule.get()),
      cluster_(config.params) {
  controller_.set_cross_check(config_.cross_check_admission);
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
  cluster_.reset();
  if (algorithm_->rule->uses_calendar()) {
    if (calendar_) {
      calendar_->clear();
    } else {
      calendar_.emplace(config_.params.node_count);
    }
  } else {
    calendar_.reset();
  }
  waiting_.clear();
  queue_.clear();
  controller_.invalidate();
  controller_.reset_session_stats();
  algorithm_->rule->reset_planner_counters();
  now_ = 0.0;
  next_version_ = 1;
  channel_free_ = 0.0;
  metrics_ = SimMetrics{};
  metrics_.horizon = horizon;
  metrics_.node_count = config_.params.node_count;

  // Arrivals are merged straight from the (sorted) source; the event heap
  // only carries commit events. Ordering matches the EventPriority rule:
  // at equal instants commitments run before arrivals. The source's peeked
  // pointer stays stable through any number of interleaved commit events
  // (loading happens inside peek(), never pop() - see sim/task_source.hpp).
  RTDLS_TRACE_SCOPE("sim.run", "sim");
  source_ = &source;
  queue_.reserve(64);
  bool any_arrival = false;
  Time last_arrival = 0.0;
  const workload::Task* next = source.peek();
  while (next != nullptr || !queue_.empty()) {
    const bool take_commit = !queue_.empty() &&
                             (next == nullptr || queue_.top().time <= next->arrival());
    if (take_commit) {
      const Event<CommitEvent> event = queue_.pop();
      now_ = event.time;
      handle_commit(event.payload.id, event.payload.version);
    } else {
      // A vector source was pre-checked by run(); a streamed trace can only
      // be validated as it flows.
      if (any_arrival && next->arrival() < last_arrival) {
        source_ = nullptr;
        throw std::invalid_argument(
            "ClusterSimulator::run_stream: arrivals decrease mid-stream");
      }
      any_arrival = true;
      last_arrival = next->arrival();
      now_ = next->arrival();
      handle_arrival(*next);
      source.pop();
      next = source.peek();
    }
  }
  source_ = nullptr;

  // Every adopted entry carries a commit event at its current version and
  // the loop above drains the queue, so nothing can still be waiting -
  // completions/utilization already include work planned past the last
  // arrival.
  if (!waiting_.empty()) {
    throw std::logic_error("ClusterSimulator::run: waiting tasks survived the event loop");
  }

  if (calendar_) {
    for (cluster::NodeId id = 0; id < calendar_->size(); ++id) {
      metrics_.busy_time += calendar_->busy_time(id);
    }
    // Gaps in a calendar are not "inserted" idle: any later task may still
    // backfill them, so no IIT is attributed in calendar mode.
  } else {
    metrics_.busy_time = cluster_.total_busy_time();
    metrics_.idle_gap_time = cluster_.total_idle_gap_time();
  }
  const auto session_peak = controller_.peak_session_memory();
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
  const Time now = now_;
  ++metrics_.arrivals;
  metrics_.queue_length.add(static_cast<double>(waiting_.size()));

  waiting_view_.clear();
  for (const WaitingEntry& entry : waiting_) waiting_view_.push_back(entry.task);

  sched::AdmissionOutcome outcome;
  {
    RTDLS_TRACE_SCOPE("sim.admit_test", "sim");
    outcome = controller_.admit(task, waiting_view_, config_.params, cluster_,
                                calendar_ ? &*calendar_ : nullptr, now,
                                config_.incremental_admission);
  }

  if (!outcome.accepted) {
    ++metrics_.rejected;
    ++metrics_.reject_reasons[static_cast<std::size_t>(outcome.reason)];
    RTDLS_LOG(kDebug) << "t=" << now << " reject task " << task.id << " ("
                      << dlt::infeasibility_name(outcome.reason) << ")";
    return;
  }

  ++metrics_.accepted;
  adopt_schedule(outcome.reused_prefix, outcome.schedule);
  // The waiting entry (and possibly the admission session) now hold this
  // task's pointer; pin its chunk until the commit retires it.
  source_->on_task_admitted(&task);
}

void ClusterSimulator::adopt_schedule(std::size_t reused_prefix,
                                      std::vector<sched::ScheduledTask>& schedule) {
  // Replace the waiting suffix with the accepted temp schedule (the leading
  // `reused_prefix` entries' plans are unchanged, so their versions - and
  // the commit events already queued for them - stay valid). Every replaced
  // entry gets a fresh version so commit events for superseded plans are
  // ignored. The schedule arrives in policy order, preserving the waiting
  // queue's ordering invariant.
  waiting_.erase(waiting_.begin() + static_cast<std::ptrdiff_t>(reused_prefix),
                 waiting_.end());
  waiting_.reserve(reused_prefix + schedule.size());
  for (sched::ScheduledTask& scheduled : schedule) {
    WaitingEntry entry;
    entry.task = scheduled.task;
    entry.plan = std::move(scheduled.plan);
    entry.version = next_version_++;
    const Time commit_at = std::max(entry.plan.commit_time(), now_);
    const cluster::TaskId id = entry.task->id;
    const std::uint64_t version = entry.version;
    waiting_.push_back(std::move(entry));
    queue_.push(commit_at, EventPriority::kCommit, CommitEvent{id, version});
  }
}

void ClusterSimulator::handle_commit(cluster::TaskId id, std::uint64_t version) {
  RTDLS_TRACE_SCOPE("sim.commit", "sim");
  const auto it = std::find_if(waiting_.begin(), waiting_.end(), [&](const WaitingEntry& w) {
    return w.task->id == id && w.version == version;
  });
  if (it == waiting_.end()) return;  // superseded by a later re-plan
  WaitingEntry entry = std::move(*it);
  waiting_.erase(it);
  const bool matches_plan = commit_task(now_, entry);
  if (matches_plan) {
    // The committed reservations equal this plan's releases, so the
    // admission session can advance (a policy-order-front commit whose
    // plan matches its cache) instead of rebuilding.
    controller_.on_commit(entry.task, entry.plan, cluster_.version());
  } else {
    controller_.invalidate();
  }
  // Committed tasks are immutable and never re-enter the waiting queue:
  // this pointer's last dereference was the session advance above, so a
  // streaming source may now recycle its chunk.
  source_->on_task_retired(entry.task);
}

bool ClusterSimulator::commit_task(Time now, const WaitingEntry& entry) {
  const sched::TaskPlan& plan = entry.plan;
  const workload::Task& task = *entry.task;

  std::vector<cluster::NodeId>& ids = ids_scratch_;
  sched::commit_plan(plan, now, cluster_, calendar_ ? &*calendar_ : nullptr, ids);

  // Roll out the actual timeline on the (dedicated or shared) channel.
  // Multi-round plans already carry their exact rolled-out per-node
  // finishes (built by build_multiround_schedule); re-rolling them through
  // the single-round model would be the wrong execution semantics.
  RTDLS_TRACE_SCOPE("sim.rollout", "sim");
  ActualTimeline timeline;
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
    ResultTimeline with_results = roll_out_with_results(
        config_.params, task.sigma(), config_.output_ratio, plan, channel_at);
    actual = with_results.task_completion;
    timeline = std::move(with_results.input);
    // A node is truly done once its result left for the head node.
    timeline.completion = std::move(with_results.result_tx_end);
    if (config_.shared_link) channel_free_ = actual;
  } else {
    const Time channel_at = config_.shared_link ? channel_free_ : 0.0;
    timeline = roll_out(config_.params, task.sigma(), plan, channel_at);
    if (config_.shared_link) channel_free_ = timeline.tx_end.back();
    actual = timeline.task_completion();
  }
  const Time estimate = plan.est_completion;

  if (config_.schedule_log != nullptr) {
    for (std::size_t i = 0; i < plan.nodes; ++i) {
      const double cps = plan.node_cps.empty() ? config_.params.cps : plan.node_cps[i];
      config_.schedule_log->add(ScheduleEntry{task.id, ids[i], plan.available[i],
                                              plan.reserve_from[i], plan.node_release[i],
                                              plan.alpha[i], cps, timeline.completion[i]});
    }
  }

  if (config_.validate) {
    if (!config_.shared_link && fp::after(actual, estimate, fp::kEventTolerance)) {
      ++metrics_.theorem4_violations;
      RTDLS_LOG(kError) << "Theorem 4 violated: task " << task.id << " actual=" << actual
                        << " estimate=" << estimate;
    }
    if (fp::after(actual, task.abs_deadline(), fp::kEventTolerance)) {
      ++metrics_.deadline_misses;
    }
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
  double e_no_iit = 0.0;
  if (plan.node_cps.empty()) {
    e_no_iit = dlt::homogeneous_execution_time(config_.params, task.sigma(), plan.nodes);
  } else {
    dlt::general_het_alpha_into(config_.params.cms, plan.node_cps, plan.nodes,
                                alpha_scratch_);
    e_no_iit = task.sigma() * config_.params.cms +
               alpha_scratch_.back() * task.sigma() * plan.node_cps.back();
  }
  const double e_planned = plan.est_completion - plan.available.back();
  metrics_.iit_compression.add((e_no_iit - e_planned) / e_no_iit);

  if (config_.release_policy == ReleasePolicy::kActual && !config_.shared_link &&
      !calendar_) {
    if (!plan.node_cps.empty()) {
      // Heterogeneous plans keep slot identity end to end: slot i's work ran
      // on node ids[i] at its own speed, so each node hands back exactly its
      // own unused tail (order statistics would release the wrong node when
      // speeds differ).
      for (std::size_t i = 0; i < plan.nodes; ++i) {
        const Time at = std::min(timeline.completion[i], cluster_.node(ids[i]).free_at());
        cluster_.release_early(ids[i], at);
      }
      return false;  // availability no longer matches the plan's releases
    }
    // Theorem 4: each node's actual finish is no later than the estimate it
    // was committed until; hand the unused tail back. Pair sorted actual
    // completions with the nodes sorted by committed release so order
    // statistics keep every early release valid.
    std::vector<Time>& actual_sorted = actual_sorted_scratch_;
    actual_sorted = timeline.completion;
    std::sort(actual_sorted.begin(), actual_sorted.end());
    std::vector<cluster::NodeId>& by_release = by_release_scratch_;
    by_release = ids;
    std::sort(by_release.begin(), by_release.end(), [&](cluster::NodeId a, cluster::NodeId b) {
      return cluster_.node(a).free_at() < cluster_.node(b).free_at();
    });
    for (std::size_t i = 0; i < by_release.size(); ++i) {
      const Time at = std::min(actual_sorted[i], cluster_.node(by_release[i]).free_at());
      cluster_.release_early(by_release[i], at);
    }
    return false;  // availability no longer matches the plan's releases
  }
  return !calendar_;
}

SimMetrics simulate(const SimulatorConfig& config, const std::string& algorithm_name,
                    const std::vector<workload::Task>& tasks, Time horizon) {
  const sched::Algorithm algorithm = sched::make_algorithm(algorithm_name);
  ClusterSimulator simulator(config, algorithm);
  return simulator.run(tasks, horizon);
}

}  // namespace rtdls::sim
