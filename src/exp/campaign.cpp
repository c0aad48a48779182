#include "exp/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "exp/runner.hpp"
#include "sched/registry.hpp"

namespace rtdls::exp {

Campaign::Campaign(std::vector<FigureSpec> figures) : figures_(std::move(figures)) {
  offsets_.push_back(0);
  for (const FigureSpec& figure : figures_) {
    for (const SweepSpec& spec : figure.panels) {
      if (spec.loads.empty()) {
        throw std::invalid_argument("campaign: sweep '" + spec.id + "': no loads");
      }
      if (spec.algorithms.empty()) {
        throw std::invalid_argument("campaign: sweep '" + spec.id + "': no algorithms");
      }
      if (spec.runs == 0) {
        throw std::invalid_argument("campaign: sweep '" + spec.id + "': runs must be >= 1");
      }
      sweeps_.push_back(spec);
      offsets_.push_back(offsets_.back() +
                         spec.loads.size() * spec.runs * spec.algorithms.size());
    }
  }
}

CellRef Campaign::cell(std::size_t index) const {
  // offsets_ is [0, end_of_sweep_0, ...]; the owning sweep is the last
  // offset <= index.
  const auto it = std::upper_bound(offsets_.begin(), offsets_.end(), index);
  if (it == offsets_.begin() || index >= cell_count()) {
    throw std::out_of_range("Campaign::cell: index " + std::to_string(index) + " out of range");
  }
  CellRef ref;
  ref.index = index;
  ref.sweep = static_cast<std::size_t>(it - offsets_.begin()) - 1;
  const SweepSpec& spec = sweeps_[ref.sweep];
  const std::size_t local = index - offsets_[ref.sweep];
  const std::size_t algs = spec.algorithms.size();
  ref.algorithm = local % algs;
  const std::size_t trace = local / algs;  // load * runs + run
  ref.run = trace % spec.runs;
  ref.load = trace / spec.runs;
  return ref;
}

namespace {

/// One reusable simulation context: the algorithm instance (rules may keep
/// mutable scratch, so instances are never shared across threads) plus a
/// simulator whose run() resets state in place.
struct SimSlot {
  sched::Algorithm algorithm;
  sim::ClusterSimulator simulator;

  SimSlot(const sim::SimulatorConfig& config, sched::Algorithm alg)
      : algorithm(std::move(alg)), simulator(config, algorithm) {}
};

/// Per-algorithm free lists of SimSlots for one sweep. Workers check a slot
/// out per cell and return it afterwards, so a campaign allocates at most
/// (algorithms x concurrent workers) simulators per sweep and every
/// simulator serves many back-to-back cells. Results cannot depend on which
/// slot serves which cell: run() fully resets per-run state.
class SlotPool {
 public:
  SlotPool(const sim::SimulatorConfig& config, const std::vector<std::string>& names)
      : config_(config), names_(names), free_(names.size()) {}

  std::unique_ptr<SimSlot> acquire(std::size_t algorithm) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      auto& stack = free_[algorithm];
      if (!stack.empty()) {
        std::unique_ptr<SimSlot> slot = std::move(stack.back());
        stack.pop_back();
        return slot;
      }
    }
    return std::make_unique<SimSlot>(config_, sched::make_algorithm(names_[algorithm]));
  }

  void release(std::size_t algorithm, std::unique_ptr<SimSlot> slot) {
    std::lock_guard<std::mutex> lock(mutex_);
    free_[algorithm].push_back(std::move(slot));
  }

 private:
  sim::SimulatorConfig config_;
  const std::vector<std::string>& names_;
  std::mutex mutex_;
  std::vector<std::vector<std::unique_ptr<SimSlot>>> free_;
};

}  // namespace

void run_campaign(const Campaign& campaign, const CampaignOptions& options, ResultSink& sink) {
  const std::vector<SweepSpec>& sweeps = campaign.sweeps();
  const std::size_t total = campaign.cell_count();

  // Per-sweep simulator configuration and reusable simulator slots.
  std::vector<sim::SimulatorConfig> configs(sweeps.size());
  std::vector<std::unique_ptr<SlotPool>> pools(sweeps.size());
  for (std::size_t s = 0; s < sweeps.size(); ++s) {
    // Materializes the sweep's het_profile key into a speed profile; the
    // workload params (cell_workload) keep the scalar cluster so load
    // calibration is profile-independent.
    configs[s].params = sweeps[s].materialized_cluster();
    configs[s].release_policy = sweeps[s].release_policy;
    configs[s].shared_link = sweeps[s].shared_link;
    configs[s].output_ratio = sweeps[s].output_ratio;
    pools[s] = std::make_unique<SlotPool>(configs[s], sweeps[s].algorithms);
  }

  // One workload trace per (sweep, load, run), shared by every algorithm of
  // that sweep (the paper's paired comparison: same trace, different
  // algorithms). Traces are a pure function of (spec, load, run), so lazily
  // generating each in whichever cell needs it first cannot change results;
  // each is freed after its last cell, so peak trace memory tracks the
  // in-flight cells, not the whole campaign (at paper scale a full trace
  // set is large).
  std::vector<std::size_t> trace_offsets(sweeps.size() + 1, 0);
  for (std::size_t s = 0; s < sweeps.size(); ++s) {
    trace_offsets[s + 1] = trace_offsets[s] + sweeps[s].loads.size() * sweeps[s].runs;
  }
  const std::size_t trace_count = trace_offsets.back();
  std::vector<std::vector<workload::Task>> traces(trace_count);
  const auto trace_once = std::make_unique<std::once_flag[]>(trace_count);
  const auto cells_left = std::make_unique<std::atomic<std::size_t>[]>(trace_count);
  for (std::size_t s = 0; s < sweeps.size(); ++s) {
    for (std::size_t t = trace_offsets[s]; t < trace_offsets[s + 1]; ++t) {
      cells_left[t].store(sweeps[s].algorithms.size(), std::memory_order_relaxed);
    }
  }

  std::mutex progress_mutex;
  std::size_t done = 0;
  std::mutex failed_mutex;

  auto run_cell = [&](std::size_t index) {
    const CellRef ref = campaign.cell(index);
    const SweepSpec& spec = sweeps[ref.sweep];
    const std::size_t t = trace_offsets[ref.sweep] + ref.load * spec.runs + ref.run;
    std::call_once(trace_once[t], [&] {
      traces[t] = workload::generate_workload(cell_workload(spec, spec.loads[ref.load], ref.run));
    });

    CellResult cell;
    cell.ref = ref;
    bool computed = true;
    try {
      std::unique_ptr<SimSlot> slot = pools[ref.sweep]->acquire(ref.algorithm);
      const sim::SimMetrics metrics = slot->simulator.run(traces[t], spec.sim_time);
      pools[ref.sweep]->release(ref.algorithm, std::move(slot));
      // A Theorem-4 violation is a model violation, not a result: it fails
      // the cell like a thrown simulation.
      if (metrics.theorem4_violations != 0 && spec.halt_on_theorem4) {
        throw std::logic_error("campaign: Theorem 4 violated in sweep '" + spec.id +
                               "' algorithm " + spec.algorithms[ref.algorithm] +
                               " (set SweepSpec::halt_on_theorem4 = false to record instead)");
      }
      cell.metrics[static_cast<std::size_t>(SweepMetric::kRejectRatio)] = metrics.reject_ratio();
      cell.metrics[static_cast<std::size_t>(SweepMetric::kMeanResponse)] =
          metrics.response_time.mean();
      cell.metrics[static_cast<std::size_t>(SweepMetric::kMeanWait)] = metrics.wait_time.mean();
      cell.metrics[static_cast<std::size_t>(SweepMetric::kUtilization)] = metrics.utilization();
      cell.metrics[static_cast<std::size_t>(SweepMetric::kDeadlineMisses)] =
          static_cast<double>(metrics.deadline_misses);
      cell.metrics[static_cast<std::size_t>(SweepMetric::kTheorem4Violations)] =
          static_cast<double>(metrics.theorem4_violations);
    } catch (const std::exception& e) {
      if (options.failed == nullptr) throw;
      computed = false;
      std::lock_guard<std::mutex> lock(failed_mutex);
      options.failed->push_back(FailedCell{index, e.what()});
    }
    if (cells_left[t].fetch_sub(1, std::memory_order_acq_rel) == 1) {
      traces[t] = std::vector<workload::Task>();
    }
    if (computed) sink.consume(campaign, cell);

    if (options.progress) {
      std::lock_guard<std::mutex> lock(progress_mutex);
      ++done;
      options.progress(ref, done, total);
    }
  };

  if (options.pool != nullptr) {
    options.pool->parallel_for(total, run_cell);
  } else {
    for (std::size_t i = 0; i < total; ++i) run_cell(i);
  }
  if (options.failed != nullptr) {
    // Completion order is pool-dependent; the report is canonical by index.
    std::sort(options.failed->begin(), options.failed->end(),
              [](const FailedCell& a, const FailedCell& b) { return a.index < b.index; });
  }
}

AggregateSink::AggregateSink(const Campaign& campaign) {
  results_.reserve(campaign.sweeps().size());
  for (const SweepSpec& spec : campaign.sweeps()) {
    SweepResult result;
    result.spec = spec;
    result.curves.resize(spec.algorithms.size());
    for (std::size_t a = 0; a < spec.algorithms.size(); ++a) {
      result.curves[a].algorithm = spec.algorithms[a];
      for (MetricSeries& series : result.curves[a].metrics) {
        series.raw.assign(spec.loads.size() * spec.runs, 0.0);
        series.per_load.resize(spec.loads.size());
      }
    }
    results_.push_back(std::move(result));
  }
}

void AggregateSink::consume(const Campaign&, const CellResult& cell) {
  // Every cell owns exactly one raw[] slot per metric, so concurrent
  // consume() calls never touch the same memory and need no lock.
  SweepResult& result = results_[cell.ref.sweep];
  const std::size_t sample = cell.ref.load * result.spec.runs + cell.ref.run;
  CurveResult& curve = result.curves[cell.ref.algorithm];
  for (std::size_t m = 0; m < kSweepMetricCount; ++m) {
    curve.metrics[m].raw[sample] = cell.metrics[m];
  }
}

std::vector<SweepResult> AggregateSink::take(double wall_seconds) {
  // Aggregate every (algorithm, metric, load) over the runs in run order
  // with a streaming accumulator; order is fixed, so aggregation is
  // deterministic regardless of cell completion order.
  for (SweepResult& result : results_) {
    const std::size_t loads = result.spec.loads.size();
    const std::size_t runs = result.spec.runs;
    for (CurveResult& curve : result.curves) {
      for (MetricSeries& series : curve.metrics) {
        for (std::size_t l = 0; l < loads; ++l) {
          stats::RunningStats acc;
          for (std::size_t r = 0; r < runs; ++r) acc.add(series.raw[l * runs + r]);
          series.per_load[l] = stats::mean_confidence_interval(acc, result.spec.confidence);
        }
      }
    }
    result.wall_seconds = wall_seconds;
  }
  return std::move(results_);
}

}  // namespace rtdls::exp
