// replay_large: the operator's trace replay at scale. A seeded paper-style
// trace (load and deadlines set so that about a quarter of the tasks are
// rejected) is written to CSV and replayed with EDF-DLT on a heterogeneous
// N=4096 cluster (lognormal:0.5 speeds) through
// workload::TraceReader -> sim::StreamingTaskSource ->
// sim::ClusterSimulator::run_stream. At this N the cluster resolves the
// bucket availability index, every decision takes an O(N) availability
// snapshot, and the heterogeneous prefix-scan planner runs; the waiting
// queue stays near empty, so the admission session and exp do little.
//
// Untraced: the set-up (profile, cluster, simulator, opening the trace) is
// timed repeatedly, then the trace is replayed until the time budget is
// spent. An operation is one decision; every replay must decide the same
// way, with no deadline miss or Theorem-4 violation, and a replay that
// throws fails all of its decisions. Per-decision latency is the gap
// between consecutive pops of the arrival source; the timing metrics come
// from each decision's fastest gap over the replays.
//
// Traced: reference replays first, then one replay with a TimedRule, an
// ingest-timing source and a ScheduleLog, whose decisions must equal the
// reference; the log's reservations are then committed into a fresh
// cluster to time Cluster::commit on its own.
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/speed_profile.hpp"
#include "probes.hpp"
#include "sched/registry.hpp"
#include "sim/schedule_log.hpp"
#include "sim/simulator.hpp"
#include "sim/task_source.hpp"
#include "workload/generator.hpp"
#include "workload/trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace rtdls;
using cluster::Time;

constexpr std::size_t kNodes = 4096;
constexpr double kCms = 1.0;
constexpr double kCps = 100.0;
// Paper-calibrated arrivals at four times the nominal load with mean
// deadlines equal to the mean minimum execution time: about a quarter of the
// tasks are rejected and the waiting queue stays near empty.
constexpr double kSystemLoad = 4.0;
constexpr double kDcRatio = 1.0;
constexpr const char* kAlgorithm = "EDF-DLT";
constexpr const char* kSpeedProfile = "lognormal:0.5";
constexpr std::size_t kSetupPerRun = 4;
constexpr std::size_t kMinRuns = 2;
constexpr std::size_t kMaxRuns = 64;

struct ReplaySize {
  std::size_t tasks;
  std::size_t chunk_tasks;  ///< TraceReader chunk: several chunks per trace
};

/// 3000 tasks take about 3.3 s to replay here, so a 40 s run repeats the
/// replay about 12 times; the decisions' fastest gaps settle within 0.5%
/// after about 9 repetitions.
ReplaySize replay_size(Size size) {
  return size == Size::kFull ? ReplaySize{3000, 512} : ReplaySize{1100, 256};
}

/// The cluster is the same for every seed (the profile generator's default
/// seed); the seed varies the trace.
cluster::ClusterParams cluster_params() {
  cluster::ClusterParams params;
  params.node_count = kNodes;
  params.cms = kCms;
  params.cps = kCps;
  params.speed_profile = std::make_shared<const cluster::SpeedProfile>(
      cluster::parse_speed_profile(kSpeedProfile, kNodes, kCps));
  return params;
}

/// The first `count` tasks of a paper-calibrated workload for this cluster.
std::vector<workload::Task> make_trace(std::uint64_t seed, std::size_t count) {
  workload::WorkloadParams params;
  params.cluster.node_count = kNodes;
  params.cluster.cms = kCms;
  params.cluster.cps = kCps;
  params.system_load = kSystemLoad;
  params.dc_ratio = kDcRatio;
  params.seed = seed;
  params.total_time = 1.5 * static_cast<double>(count) * params.mean_interarrival();
  std::vector<workload::Task> tasks = workload::generate_workload(params);
  if (tasks.size() < count) {
    throw std::runtime_error("replay_large: generated trace too short");
  }
  tasks.resize(count);
  return tasks;
}

/// Everything a replay builds before its first decision.
struct Replayer {
  sched::Algorithm algorithm;
  sim::ClusterSimulator simulator;
  workload::TraceReader reader;
  sim::StreamingTaskSource source;

  Replayer(sched::Algorithm alg, const std::string& path, std::size_t chunk_tasks,
           sim::ScheduleLog* log)
      : algorithm(std::move(alg)),
        simulator(config(log), algorithm),
        reader(path, {.chunk_tasks = chunk_tasks}),
        source(reader) {}

  static sim::SimulatorConfig config(sim::ScheduleLog* log) {
    sim::SimulatorConfig config;
    config.params = cluster_params();
    config.schedule_log = log;
    return config;
  }
};

struct ReplayRun {
  bool ok = false;
  double setup_s = 0.0;
  double seconds = 0.0;
  sim::SimMetrics metrics;
  double ingest_s = 0.0;
  std::size_t peak_resident = 0;

  double rate() const { return ratio(static_cast<double>(metrics.arrivals), seconds); }
};

/// One replay of the trace at `path`. `probe` (traced runs) wraps the rule
/// and times ingest; `log` records every committed reservation. `gaps_us`
/// receives the per-decision latencies (the caller's buffer, reused).
ReplayRun replay_once(const Options& options, const std::string& path, Time horizon,
                      PlanProbe* probe, sim::ScheduleLog* log,
                      std::vector<double>& gaps_us) {
  const ReplaySize size = replay_size(options.size);
  ReplayRun run;
  gaps_us.clear();
  gaps_us.reserve(size.tasks + 1);
  const Clock::time_point setup_start = Clock::now();
  Replayer replayer(probe != nullptr ? make_timed_algorithm(kAlgorithm, *probe)
                                     : sched::make_algorithm(kAlgorithm),
                    path, size.chunk_tasks, log);
  const Clock::time_point start = Clock::now();
  run.setup_s = seconds_between(setup_start, start);
  StampedSource stamped(replayer.source, gaps_us, probe != nullptr);
  try {
    run.metrics = replayer.simulator.run_stream(stamped, horizon);
    stamped.stamp_end();
    run.ok = true;
  } catch (const std::exception& error) {
    note(std::string("replay failed: ") + error.what());
  }
  run.seconds = seconds_between(start, Clock::now());
  run.ingest_s = stamped.ingest_seconds();
  run.peak_resident = replayer.source.peak_resident_tasks();
  return run;
}

/// Checks one replay against the invariants and the first good replay.
void check_replay(const ReplayRun& run, const ReplayRun* first, std::size_t tasks,
                  const std::string& what, Report& report) {
  const sim::SimMetrics& m = run.metrics;
  if (m.arrivals != tasks) {
    report.fail_check(what + ": " + std::to_string(m.arrivals) +
                      " decisions, trace holds " + std::to_string(tasks));
  }
  if (m.deadline_misses != 0 || m.theorem4_violations != 0) {
    report.fail_check(what + ": " + std::to_string(m.deadline_misses) +
                      " deadline misses, " + std::to_string(m.theorem4_violations) +
                      " Theorem-4 violations");
  }
  if (first != nullptr &&
      (m.accepted != first->metrics.accepted || m.rejected != first->metrics.rejected ||
       m.reject_reasons != first->metrics.reject_reasons ||
       m.busy_time != first->metrics.busy_time)) {
    report.fail_check(what + ": decisions differ from the first replay");
  }
}

/// Time spent committing `log`'s reservations, in log order, into a fresh
/// cluster of the replay's size; returns microseconds per commit.
double time_commits(const sim::ScheduleLog& log) {
  cluster::Cluster cluster(cluster_params());
  const Clock::time_point start = Clock::now();
  for (const sim::ScheduleEntry& entry : log.entries()) {
    cluster.commit(entry.node, entry.task, entry.usable_from, entry.start, entry.end);
  }
  const double us = seconds_between(start, Clock::now()) * 1e6;
  return ratio(us, static_cast<double>(log.size()));
}

}  // namespace

void run_replay_large(const Options& options, Report& report) {
  const ReplaySize size = replay_size(options.size);
  const std::string path = scratch_dir() + "/replay.csv";
  const std::string bad_path = scratch_dir() + "/replay-bad.csv";
  Time horizon = 0.0;
  {
    std::vector<workload::Task> tasks = make_trace(options.seed, size.tasks);
    horizon = tasks.back().arrival() + 1.0;
    workload::save_trace_file(path, tasks);
    if (options.inject_failure) {
      // One arrival earlier than its predecessor, halfway through the trace.
      workload::Task& row = tasks[tasks.size() / 2];
      row.spec.arrival = tasks[tasks.size() / 2 - 1].arrival() / 2.0;
      workload::save_trace_file(bad_path, tasks);
    }
  }
  note("replay_large: " + std::to_string(size.tasks) + " tasks, N=" +
       std::to_string(kNodes) + ", " + kSpeedProfile + ", chunk " +
       std::to_string(size.chunk_tasks));

  std::vector<double> gaps_us;
  if (options.inject_failure) {
    const ReplayRun bad =
        replay_once(options, bad_path, horizon, nullptr, nullptr, gaps_us);
    report.attempt(size.tasks);
    if (bad.ok) {
      report.fail_check(
          "replay_large: a trace with a decreasing arrival replayed without error");
    } else {
      report.fail(size.tasks);
    }
  }

  // Untraced replays: the whole budget, or the first half of a traced run.
  // Untraced runs also time kSetupPerRun stand-alone set-ups before each
  // replay, so the set-up samples spread over the run.
  std::vector<ReplayRun> runs;
  std::vector<double> setup_s;
  BestTimes gaps(size.tasks + 1);  // one per decision, then the drain
  const double budget = options.trace ? options.seconds / 2.0 : options.seconds;
  repeat_for(budget, options.trace ? 1 : kMinRuns, kMaxRuns, [&] {
    pin_for_turn(runs.size());
    for (std::size_t i = 0; !options.trace && i < kSetupPerRun; ++i) {
      const Clock::time_point setup_start = Clock::now();
      const Replayer replayer(sched::make_algorithm(kAlgorithm), path, size.chunk_tasks,
                              nullptr);
      setup_s.push_back(seconds_between(setup_start, Clock::now()));
    }
    ReplayRun run = replay_once(options, path, horizon, nullptr, nullptr, gaps_us);
    report.attempt(size.tasks);
    if (!run.ok) {
      report.fail(size.tasks);
      return;
    }
    setup_s.push_back(run.setup_s);
    check_replay(run, runs.empty() ? nullptr : &runs.front(), size.tasks,
                 "replay " + std::to_string(runs.size() + 1), report);
    for (std::size_t i = 0; i < gaps_us.size() && i <= size.tasks; ++i) {
      gaps.offer(i, gaps_us[i]);
    }
    runs.push_back(std::move(run));
  });
  if (runs.empty()) throw std::runtime_error("replay_large: every replay failed");

  std::vector<double> rates;
  for (const ReplayRun& run : runs) rates.push_back(run.rate());
  // Per decision, its fastest latency over the replays (see BestTimes); the
  // order statistics are over the decisions, and the replay of fastest
  // decisions, drain included, gives decisions_per_s.
  std::vector<double> latency_us;
  double best_replay_us = 0.0;
  for (std::size_t i = 0; i <= size.tasks; ++i) {
    const double gap = gaps.values()[i];
    if (gap == BestTimes::kMissing) continue;
    best_replay_us += gap;
    if (i < size.tasks) latency_us.push_back(gap);
  }
  const sim::SimMetrics& first = runs.front().metrics;
  note("replays: " + std::to_string(runs.size()) + " x " +
       std::to_string(first.arrivals) + " decisions (" + std::to_string(first.rejected) +
       " rejected), latency samples: " +
       std::to_string(latency_us.size()) + " decisions x " + std::to_string(runs.size()) +
       " replays, set-up samples: " + std::to_string(setup_s.size()));
  note("replay of fastest decisions: " + std::to_string(best_replay_us * 1e-6) +
       " s; median replay " + std::to_string(median(rates)) + " decisions/s");

  if (!options.trace) {
    EndToEnd metrics;
    metrics.decisions_per_s =
        ratio(static_cast<double>(first.arrivals), best_replay_us * 1e-6);
    metrics.reject_ratio = first.reject_ratio();
    metrics.peak_rss_mb = peak_rss_mb();
    metrics.setup_s = median(setup_s);
    metrics.admit_p50_us =
        required_percentile(report, "decision latency", latency_us, 50);
    metrics.admit_p99_us =
        required_percentile(report, "decision latency", latency_us, 99);
    add_end_to_end(report, metrics);
    return;
  }

  PlanProbe probe;
  sim::ScheduleLog log;
  const RegistryTotals before = RegistryTotals::read();
  const ReplayRun traced = replay_once(options, path, horizon, &probe, &log, gaps_us);
  const RegistryTotals delta = RegistryTotals::read().since(before);
  report.attempt(size.tasks);
  if (!traced.ok) {
    report.fail(size.tasks);
    report.fail_check("replay_large: the traced replay failed");
  }
  check_replay(traced, &runs.front(), size.tasks, "traced replay", report);

  const sim::SimMetrics& m = traced.metrics;
  Layers layers;
  layers.workload_ingest_s = traced.ingest_s;
  layers.workload_peak_resident_tasks = static_cast<double>(traced.peak_resident);
  layers.sched_plan_calls = static_cast<double>(probe.calls);
  layers.sched_plan_s = probe.seconds;
  layers.sched_plan_infeasible_ratio =
      ratio(static_cast<double>(probe.infeasible), static_cast<double>(probe.calls));
  layers.sched_resolver_positions_per_walk =
      ratio(static_cast<double>(m.planner_resolver_positions),
            static_cast<double>(m.planner_resolver_walks));
  layers.sched_session_rebuilds = delta.session_rebuilds;
  layers.sched_delta_replays = delta.delta_replays;
  layers.sched_replan_suffix_mean =
      ratio(delta.replan_suffix_sum, delta.replan_suffix_count);
  layers.sched_session_peak_kb = static_cast<double>(m.admission_peak_bytes) / 1024.0;
  layers.sim_run_s = traced.seconds;
  layers.sim_self_s = traced.seconds - probe.seconds - traced.ingest_s;
  layers.sim_queue_depth_mean = m.queue_length.mean();
  layers.cluster_index_commits = delta.index_commits;
  layers.cluster_commit_depth_mean = ratio(delta.index_depth_sum, delta.index_commits);
  layers.cluster_commit_us = time_commits(log);
  layers.unaccounted_s = traced.setup_s;
  layers.trace_overhead_ratio = ratio(median(rates), traced.rate());
  note("traced replay: " + std::to_string(log.size()) + " reservations committed");
  add_layers(report, layers);
}

}  // namespace perfbench
