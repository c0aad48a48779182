// figure_suite: every registered figure (exp::all_figures - the paper's
// Figures 3-16, the five ablations, het_cv and het_mix) as one campaign on
// one thread, two runs per load point at half the default horizon. This is
// the job a researcher runs. At N=16 the admission session and the n_min
// resolver dominate, with deep EDF/FIFO queues at DCRatio 20-100, and every
// rule runs (calendar backfill and the heterogeneous panels included). The
// cluster index stays a 16-entry flat index and svc never runs.
//
// Untraced: the campaign is built (the set-up, timed repeatedly) and run
// through exp::run_campaign until the time budget is spent; every run must
// reproduce the first run's per-cell reject ratios bit for bit, and no cell
// may miss a deadline or violate Theorem 4. An operation is one admission
// decision; a cell whose simulation throws fails all of its decisions. The
// timing metrics come from each cell's fastest completion gap over the runs.
//
// Traced: reference campaign runs first (their completion gaps give the
// per-cell time), then the benchmark walks the same cells itself -
// cell_workload -> generate_workload -> make_algorithm with a TimedRule ->
// ClusterSimulator::run - and must reproduce every cell's reject ratio.
#include <algorithm>
#include <cmath>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "exp/campaign.hpp"
#include "exp/registry.hpp"
#include "exp/runner.hpp"
#include "probes.hpp"
#include "sim/simulator.hpp"
#include "workload/generator.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace rtdls;

constexpr std::size_t kSetupPerRun = 4;
constexpr std::size_t kMinRuns = 2;
constexpr std::size_t kMaxRuns = 64;
constexpr std::size_t kMinCellDecisions = 50;
constexpr double kNotRun = -1.0;

/// Two runs per load point at half the default horizon (2e6): the same 1.4 M
/// decisions as one run at the full horizon, in cells half as long and twice
/// as many. A campaign takes 2.5-3.5 s here, so a 40 s run repeats it more
/// than ten times; on the full-horizon campaign, which does the same work,
/// the sum of the cells' fastest gaps still fell by a few percent with each
/// repetition at 8 and settled within 0.5% after about 14.
/// Twice the cells put twice as many beyond p99, whose cell depends on the
/// seed's trace: one run per load point left p99 30% apart between seeds.
exp::Scale suite_scale(Size size) {
  exp::Scale scale;
  scale.runs = size == Size::kFull ? 2 : 1;
  scale.sim_time = size == Size::kFull ? 1'000'000.0 : 500'000.0;
  scale.jobs = 1;
  return scale;
}

/// The campaign with every sweep seeded from the benchmark seed. Theorem-4
/// violations are recorded rather than aborting the cell, so the checks
/// below see every one of them. The injected failure names an algorithm no
/// registry knows, so that cell's simulation cannot be built.
exp::Campaign build_campaign(const exp::Scale& scale, std::uint64_t seed,
                             bool inject_failure) {
  std::vector<exp::FigureSpec> figures = exp::all_figures(scale);
  for (exp::FigureSpec& figure : figures) {
    for (exp::SweepSpec& panel : figure.panels) {
      panel.seed = seed;
      panel.halt_on_theorem4 = false;
    }
  }
  if (inject_failure) {
    figures.front().panels.front().algorithms.front() = "EDF-NO-SUCH-RULE";
  }
  return exp::Campaign(std::move(figures));
}

/// Arrivals of every (sweep, load, run) trace - the decisions each cell of
/// that trace makes - generated once per seed, sizes kept.
class TraceSizes {
 public:
  explicit TraceSizes(const exp::Campaign& campaign) {
    for (const exp::SweepSpec& spec : campaign.sweeps()) {
      offsets_.push_back(sizes_.size());
      for (double load : spec.loads) {
        for (std::size_t run = 0; run < spec.runs; ++run) {
          sizes_.push_back(
              workload::generate_workload(exp::cell_workload(spec, load, run)).size());
        }
      }
    }
  }

  std::size_t of(const exp::Campaign& campaign, const exp::CellRef& ref) const {
    const std::size_t runs = campaign.sweeps()[ref.sweep].runs;
    return sizes_[offsets_[ref.sweep] + ref.load * runs + ref.run];
  }

  std::size_t largest() const { return *std::max_element(sizes_.begin(), sizes_.end()); }

 private:
  std::vector<std::size_t> offsets_;
  std::vector<std::size_t> sizes_;
};

/// Keeps each cell's reject ratio and sums its invariant violations.
class CheckingSink final : public exp::ResultSink {
 public:
  explicit CheckingSink(std::size_t cells) : reject_ratio(cells, kNotRun) {}

  void consume(const exp::Campaign&, const exp::CellResult& cell) override {
    auto metric = [&](exp::SweepMetric m) {
      return cell.metrics[static_cast<std::size_t>(m)];
    };
    reject_ratio[cell.ref.index] = metric(exp::SweepMetric::kRejectRatio);
    misses += metric(exp::SweepMetric::kDeadlineMisses);
    violations += metric(exp::SweepMetric::kTheorem4Violations);
  }

  std::vector<double> reject_ratio;
  double misses = 0.0;
  double violations = 0.0;
};

struct CampaignRun {
  double seconds = 0.0;
  std::uint64_t decisions = 0;
  std::uint64_t rejected = 0;
  std::uint64_t failed = 0;  ///< decisions of cells that threw
  double misses = 0.0;
  double violations = 0.0;
  std::vector<double> reject_ratio;  ///< per cell (kNotRun: failed); first run only

  double rate() const { return ratio(static_cast<double>(decisions), seconds); }
};

/// One campaign; each computed cell's completion gap (seconds) is offered
/// to `gaps`.
CampaignRun run_campaign_once(const exp::Campaign& campaign, const TraceSizes& sizes,
                              BestTimes& gaps) {
  const std::size_t cells = campaign.cell_count();
  CheckingSink sink(cells);
  std::vector<exp::FailedCell> failed;
  exp::CampaignOptions options;
  options.failed = &failed;
  Clock::time_point last;
  options.progress = [&](const exp::CellRef& ref, std::size_t, std::size_t) {
    const Clock::time_point now = Clock::now();
    if (sink.reject_ratio[ref.index] != kNotRun) {
      gaps.offer(ref.index, seconds_between(last, now));
    }
    last = now;
  };

  CampaignRun run;
  const Clock::time_point start = Clock::now();
  last = start;
  exp::run_campaign(campaign, options, sink);
  run.seconds = seconds_between(start, Clock::now());

  for (std::size_t i = 0; i < cells; ++i) {
    const double rr = sink.reject_ratio[i];
    if (rr == kNotRun) continue;
    const std::size_t n = sizes.of(campaign, campaign.cell(i));
    run.decisions += n;
    run.rejected += static_cast<std::uint64_t>(std::llround(rr * static_cast<double>(n)));
  }
  for (const exp::FailedCell& cell : failed) {
    run.failed += sizes.of(campaign, campaign.cell(cell.index));
    note("cell " + std::to_string(cell.index) + " failed: " + cell.error);
  }
  run.misses = sink.misses;
  run.violations = sink.violations;
  run.reject_ratio = std::move(sink.reject_ratio);
  note("campaign: " + std::to_string(run.decisions) + " decisions in " +
       std::to_string(run.seconds) + " s");
  return run;
}

/// Runs campaigns for about `budget_s` (at least `min_runs`), checking each
/// against the first and recording cell gaps into `gaps`. `setup_s`, when
/// given, gets kSetupPerRun campaign builds timed before each run, so the
/// set-up samples spread over the run.
std::vector<CampaignRun> run_campaigns(const exp::Campaign& campaign,
                                       const TraceSizes& sizes, double budget_s,
                                       std::size_t min_runs, const Options& options,
                                       BestTimes& gaps, std::vector<double>* setup_s,
                                       Report& report) {
  std::vector<CampaignRun> runs;
  repeat_for(budget_s, min_runs, kMaxRuns, [&] {
    pin_for_turn(runs.size());
    for (std::size_t i = 0; setup_s != nullptr && i < kSetupPerRun; ++i) {
      const Clock::time_point start = Clock::now();
      const exp::Campaign built =
          build_campaign(suite_scale(options.size), options.seed, options.inject_failure);
      setup_s->push_back(seconds_between(start, Clock::now()));
    }
    runs.push_back(run_campaign_once(campaign, sizes, gaps));
    const CampaignRun& run = runs.back();
    report.attempt(run.decisions + run.failed);
    report.fail(run.failed);
    if (run.misses > 0.0 || run.violations > 0.0) {
      report.fail_check("campaign: " + std::to_string(run.misses) + " deadline misses, " +
                        std::to_string(run.violations) + " Theorem-4 violations");
    }
    if (runs.size() > 1) {
      if (run.reject_ratio != runs.front().reject_ratio) {
        report.fail_check("campaign: run " + std::to_string(runs.size()) +
                          " changed a cell's reject ratio");
      }
      runs.back().reject_ratio = {};  // only the first run's cells are kept
    }
  });
  return runs;
}

/// One reusable simulation context of the traced walk, like the campaign's
/// own per-(sweep, algorithm) slots.
struct TimedSlot {
  sched::Algorithm algorithm;
  sim::ClusterSimulator simulator;

  TimedSlot(const sim::SimulatorConfig& config, sched::Algorithm timed)
      : algorithm(std::move(timed)), simulator(config, algorithm) {}
};

/// The traced walk over every cell (see the file comment): fills the layer
/// metrics it measures, checks each cell against `reference`, and returns
/// the walk's decisions per second.
double traced_walk(const exp::Campaign& campaign, const TraceSizes& sizes,
                   const CampaignRun& reference, Report& report, Layers& layers) {
  PlanProbe probe;
  double generate_s = 0.0;
  double run_s = 0.0;
  std::uint64_t decisions = 0;
  std::uint64_t rejected = 0;
  std::uint64_t failed = 0;
  std::size_t mismatches = 0;
  double misses = 0.0;
  double violations = 0.0;
  double walks = 0.0;
  double positions = 0.0;
  double queue_sum = 0.0;
  double queue_count = 0.0;
  double session_peak_bytes = 0.0;

  const RegistryTotals before = RegistryTotals::read();
  const Clock::time_point start = Clock::now();
  for (std::size_t s = 0; s < campaign.sweeps().size(); ++s) {
    const exp::SweepSpec& spec = campaign.sweeps()[s];
    sim::SimulatorConfig config;
    config.params = spec.materialized_cluster();
    config.release_policy = spec.release_policy;
    config.shared_link = spec.shared_link;
    config.output_ratio = spec.output_ratio;
    std::vector<std::unique_ptr<TimedSlot>> slots(spec.algorithms.size());
    for (std::size_t l = 0; l < spec.loads.size(); ++l) {
      for (std::size_t r = 0; r < spec.runs; ++r) {
        const Clock::time_point generate_start = Clock::now();
        const std::vector<workload::Task> trace =
            workload::generate_workload(exp::cell_workload(spec, spec.loads[l], r));
        generate_s += seconds_between(generate_start, Clock::now());
        for (std::size_t a = 0; a < spec.algorithms.size(); ++a) {
          const std::size_t index =
              campaign.sweep_offset(s) + (l * spec.runs + r) * spec.algorithms.size() + a;
          sim::SimMetrics m;
          try {
            if (!slots[a]) {
              slots[a] = std::make_unique<TimedSlot>(
                  config, make_timed_algorithm(spec.algorithms[a], probe));
            }
            const Clock::time_point run_start = Clock::now();
            m = slots[a]->simulator.run(trace, spec.sim_time);
            run_s += seconds_between(run_start, Clock::now());
          } catch (const std::exception& error) {
            failed += trace.size();
            if (reference.reject_ratio[index] != kNotRun) ++mismatches;
            note("traced cell " + std::to_string(index) + " failed: " + error.what());
            continue;
          }
          if (m.reject_ratio() != reference.reject_ratio[index]) ++mismatches;
          decisions += m.arrivals;
          rejected += m.rejected;
          misses += static_cast<double>(m.deadline_misses);
          violations += static_cast<double>(m.theorem4_violations);
          walks += static_cast<double>(m.planner_resolver_walks);
          positions += static_cast<double>(m.planner_resolver_positions);
          queue_sum += m.queue_length.sum();
          queue_count += static_cast<double>(m.queue_length.count());
          session_peak_bytes =
              std::max(session_peak_bytes, static_cast<double>(m.admission_peak_bytes));
        }
      }
    }
  }
  const double wall = seconds_between(start, Clock::now());
  const RegistryTotals delta = RegistryTotals::read().since(before);

  report.attempt(decisions + failed);
  report.fail(failed);
  if (mismatches > 0) {
    report.fail_check("traced walk: " + std::to_string(mismatches) +
                      " cells differ from the untraced campaign");
  }
  if (decisions != reference.decisions || rejected != reference.rejected) {
    report.fail_check("traced walk: " + std::to_string(decisions) + " decisions / " +
                      std::to_string(rejected) + " rejects, untraced " +
                      std::to_string(reference.decisions) + " / " +
                      std::to_string(reference.rejected));
  }
  if (misses > 0.0 || violations > 0.0) {
    report.fail_check("traced walk: deadline misses or Theorem-4 violations");
  }

  layers.workload_generate_s = generate_s;
  layers.workload_peak_resident_tasks = static_cast<double>(sizes.largest());
  layers.sched_plan_calls = static_cast<double>(probe.calls);
  layers.sched_plan_s = probe.seconds;
  layers.sched_plan_infeasible_ratio =
      ratio(static_cast<double>(probe.infeasible), static_cast<double>(probe.calls));
  layers.sched_resolver_positions_per_walk = ratio(positions, walks);
  layers.sched_session_rebuilds = delta.session_rebuilds;
  layers.sched_delta_replays = delta.delta_replays;
  layers.sched_replan_suffix_mean =
      ratio(delta.replan_suffix_sum, delta.replan_suffix_count);
  layers.sched_session_peak_kb = session_peak_bytes / 1024.0;
  layers.sim_run_s = run_s;
  layers.sim_self_s = run_s - probe.seconds;
  layers.sim_queue_depth_mean = ratio(queue_sum, queue_count);
  layers.cluster_index_commits = delta.index_commits;
  layers.cluster_commit_depth_mean = ratio(delta.index_depth_sum, delta.index_commits);
  layers.unaccounted_s = wall - generate_s - run_s;
  note("traced walk: " + std::to_string(decisions) + " decisions in " +
       std::to_string(wall) + " s");
  return ratio(static_cast<double>(decisions), wall);
}

}  // namespace

void run_figure_suite(const Options& options, Report& report) {
  const exp::Scale scale = suite_scale(options.size);
  const exp::Campaign campaign =
      build_campaign(scale, options.seed, options.inject_failure);
  const TraceSizes sizes(campaign);
  note("figure_suite: " + std::to_string(campaign.sweeps().size()) + " sweeps, " +
       std::to_string(campaign.cell_count()) + " cells, horizon " +
       std::to_string(scale.sim_time));

  // A traced run spends the first half of its budget on reference runs.
  BestTimes gaps(campaign.cell_count());
  std::vector<double> setup_s;
  const std::vector<CampaignRun> runs =
      options.trace ? run_campaigns(campaign, sizes, options.seconds / 2.0, 1, options,
                                    gaps, nullptr, report)
                    : run_campaigns(campaign, sizes, options.seconds, kMinRuns, options,
                                    gaps, &setup_s, report);
  std::vector<double> rates;
  for (const CampaignRun& run : runs) rates.push_back(run.rate());
  const CampaignRun& first = runs.front();

  // Per cell, its fastest completion gap over the runs (see BestTimes), and
  // that gap per decision of the cell. Their sum is the campaign time that
  // decisions_per_s reports. Cells with fewer than kMinCellDecisions
  // decisions stay out of the per-decision sample: their gap is the run's
  // fixed reset cost spread over a handful of decisions, not the cost of a
  // decision.
  std::vector<double> cell_ms;
  std::vector<double> us_per_decision;
  double best_campaign_s = 0.0;
  std::uint64_t timed_decisions = 0;
  for (std::size_t i = 0; i < campaign.cell_count(); ++i) {
    const double gap = gaps.values()[i];
    if (gap == BestTimes::kMissing) continue;
    cell_ms.push_back(gap * 1e3);
    best_campaign_s += gap;
    const std::size_t decisions = sizes.of(campaign, campaign.cell(i));
    timed_decisions += decisions;
    if (decisions >= kMinCellDecisions) {
      us_per_decision.push_back(gap * 1e6 / static_cast<double>(decisions));
    }
  }
  note("runs: " + std::to_string(runs.size()) + ", latency samples: " +
       std::to_string(us_per_decision.size()) + " of " + std::to_string(cell_ms.size()) +
       " cells x " + std::to_string(runs.size()) + " runs, set-up samples: " +
       std::to_string(setup_s.size()));
  note("campaign of fastest cells: " + std::to_string(timed_decisions) +
       " decisions in " + std::to_string(best_campaign_s) + " s; median campaign " +
       std::to_string(median(rates)) + " decisions/s");

  if (!options.trace) {
    EndToEnd metrics;
    metrics.decisions_per_s =
        ratio(static_cast<double>(timed_decisions), best_campaign_s);
    metrics.reject_ratio =
        ratio(static_cast<double>(first.rejected), static_cast<double>(first.decisions));
    metrics.peak_rss_mb = peak_rss_mb();
    metrics.setup_s = median(setup_s);
    metrics.admit_p50_us =
        required_percentile(report, "us/decision", us_per_decision, 50);
    metrics.admit_p99_us =
        required_percentile(report, "us/decision", us_per_decision, 99);
    add_end_to_end(report, metrics);
    return;
  }

  Layers layers;
  layers.exp_cell_ms_p50 = required_percentile(report, "cell time", cell_ms, 50);
  const double traced_rate = traced_walk(campaign, sizes, first, report, layers);
  layers.trace_overhead_ratio = ratio(median(rates), traced_rate);
  add_layers(report, layers);
}

}  // namespace perfbench
