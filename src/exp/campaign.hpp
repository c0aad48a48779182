// Campaigns: any set of figures flattened into one deterministic cell-level
// work queue (sweep x load x run x algorithm), executed on the shared
// ThreadPool and streamed through a ResultSink.
//
// Cell identity is the backbone: every cell has a stable global index
// (sweep-major, then (load * runs + run) * algorithms + algorithm, matching
// the classic run_sweep cell order), and results are pure functions of
// (spec, load, run, algorithm) with per-cell seeding identical to
// run_sweep's. A pooled run is therefore bit-identical to a serial one at
// any pool size, raw samples and final CSVs included.
#pragma once

#include <array>
#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "exp/figure.hpp"
#include "util/thread_pool.hpp"

namespace rtdls::exp {

/// Position of one cell in a campaign's (sweep x load x run x algorithm)
/// grid. `index` is the stable global cell index.
struct CellRef {
  std::size_t index = 0;
  std::size_t sweep = 0;      ///< flattened sweep position (figure order)
  std::size_t load = 0;       ///< index into spec.loads
  std::size_t run = 0;        ///< run index (the RNG stream)
  std::size_t algorithm = 0;  ///< index into spec.algorithms
};

/// Metrics of one completed cell, in SweepMetric order.
struct CellResult {
  CellRef ref;
  std::array<double, kSweepMetricCount> metrics{};
};

/// A validated experiment plan: figures flattened into an ordered sweep
/// list with precomputed cell offsets.
class Campaign {
 public:
  /// Validates every panel (non-empty loads/algorithms, runs >= 1); throws
  /// std::invalid_argument otherwise.
  explicit Campaign(std::vector<FigureSpec> figures);

  const std::vector<FigureSpec>& figures() const { return figures_; }

  /// Panels of all figures, flattened in figure order.
  const std::vector<SweepSpec>& sweeps() const { return sweeps_; }

  /// Total cells across all sweeps.
  std::size_t cell_count() const { return offsets_.back(); }

  /// First global cell index of a sweep.
  std::size_t sweep_offset(std::size_t sweep) const { return offsets_[sweep]; }

  /// Decodes a global cell index.
  CellRef cell(std::size_t index) const;

 private:
  std::vector<FigureSpec> figures_;
  std::vector<SweepSpec> sweeps_;
  std::vector<std::size_t> offsets_;  ///< per-sweep cell offsets + total
};

/// Receives completed cells. consume() may be called concurrently from
/// worker threads; implementations synchronize internally.
class ResultSink {
 public:
  virtual ~ResultSink() = default;
  virtual void consume(const Campaign& campaign, const CellResult& cell) = 0;
};

/// One cell whose simulation threw; `error` is the exception's what().
struct FailedCell {
  std::size_t index = 0;
  std::string error;
};

struct CampaignOptions {
  util::ThreadPool* pool = nullptr;  ///< null: sequential execution
  /// Called after each cell with the number done so far and the total cell
  /// count. Serialized (never concurrent).
  std::function<void(const CellRef&, std::size_t done, std::size_t total)> progress;
  /// When non-null, cells whose simulation throws are appended here
  /// (ascending index) and the run continues. When null, the first failing
  /// cell's exception propagates and aborts the run.
  std::vector<FailedCell>* failed = nullptr;
};

/// Executes the campaign's cell queue and streams every completed cell into
/// `sink`. Deterministic per cell regardless of pool size. A cell that
/// violates Theorem 4 in a sweep with halt_on_theorem4 fails with a
/// std::logic_error.
void run_campaign(const Campaign& campaign, const CampaignOptions& options, ResultSink& sink);

/// In-memory aggregation into SweepResults, reproducing run_sweep
/// bit-for-bit: cells land in their raw[] slots, take() computes the
/// per-load confidence intervals in the same fixed order.
class AggregateSink : public ResultSink {
 public:
  explicit AggregateSink(const Campaign& campaign);
  void consume(const Campaign& campaign, const CellResult& cell) override;

  /// Aggregates and returns the per-sweep results (campaign sweep order),
  /// stamping `wall_seconds` on each. Call once, after run_campaign.
  std::vector<SweepResult> take(double wall_seconds = 0.0);

 private:
  std::vector<SweepResult> results_;
};

}  // namespace rtdls::exp
