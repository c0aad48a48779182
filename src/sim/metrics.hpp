// Metrics collected by one simulation run. The paper's headline metric is
// the Task Reject Ratio; the rest (response times, utilization, inserted
// idle time, queue lengths, Theorem-4 validation) support the analysis and
// ablation benches.
#pragma once

#include <array>
#include <cstddef>
#include <string>

#include "dlt/params.hpp"
#include "stats/running_stats.hpp"

namespace rtdls::sim {

using cluster::Time;

/// Aggregated results of one simulated run.
struct SimMetrics {
  // --- admission ---
  std::size_t arrivals = 0;
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  /// Rejections by Infeasibility reason (indexed by its enum value).
  std::array<std::size_t, 4> reject_reasons{};

  // --- execution (accepted tasks) ---
  stats::RunningStats response_time;   ///< completion - arrival
  stats::RunningStats wait_time;       ///< first node engagement - arrival
  stats::RunningStats deadline_slack;  ///< absolute deadline - completion
  stats::RunningStats nodes_per_task;  ///< n assigned per accepted task
  stats::RunningStats queue_length;    ///< waiting-queue length at arrivals

  /// Committed tasks whose actual rollout beat the paper's estimate by this
  /// much on average (estimate - actual completion; >= 0 by Theorem 4).
  stats::RunningStats estimate_margin;

  /// Availability stagger r_n - r_1 across each accepted task's nodes (the
  /// raw material the IIT-utilizing rules exploit).
  stats::RunningStats stagger;

  /// Relative execution-time compression (E - E_planned)/E per accepted
  /// task, where E is the no-IIT homogeneous execution time for the same n
  /// and E_planned = est_completion - r_n. Zero for OPR rules; the paper's
  /// Eq. (9) gain for DLT-IIT.
  stats::RunningStats iit_compression;

  // --- invariant checks ---
  std::size_t theorem4_violations = 0;  ///< actual completion > estimate
  std::size_t deadline_misses = 0;      ///< actual completion > deadline
                                        ///< (only possible in shared-link mode)

  // --- planner internals (sched::PlannerCounters, accumulated per run) ---
  /// OPR-MN-BF het (selection, duration) fixed points that did not settle
  /// within the iteration budget and took the conservative-window fallback.
  std::size_t backfill_fixed_point_fallbacks = 0;
  /// Node-count resolver walks and the candidate prefixes they evaluated.
  std::size_t planner_resolver_walks = 0;
  std::size_t planner_resolver_positions = 0;
  /// Batched SoA kernel evaluations (walk estimates + window durations).
  std::size_t planner_batch_passes = 0;
  /// OPR-MN-BF (selection, duration) fixed-point iterations executed.
  std::size_t backfill_fixed_point_iterations = 0;

  // --- cluster accounting ---
  double busy_time = 0.0;      ///< sum of per-node committed busy time
  double idle_gap_time = 0.0;  ///< sum of per-node inserted idle time
  Time horizon = 0.0;
  std::size_t node_count = 0;

  // --- admission session footprint (incremental mode only; 0 otherwise) ---
  /// Peak bytes the admission session's sparse state (plan deltas +
  /// checkpoint rows + frontier) held during the run, and what the
  /// historical dense one-row-per-task representation would have held at the
  /// same moment - the measured O(Q*N) -> O(Q*k + sqrt(N)*N) drop.
  std::size_t admission_peak_bytes = 0;
  std::size_t admission_peak_dense_bytes = 0;

  /// The paper's metric: rejections / arrivals (0 when no arrivals).
  double reject_ratio() const {
    return arrivals == 0 ? 0.0
                         : static_cast<double>(rejected) / static_cast<double>(arrivals);
  }

  /// Fraction of node-time spent busy over the horizon.
  double utilization() const {
    const double capacity = static_cast<double>(node_count) * horizon;
    return capacity <= 0.0 ? 0.0 : busy_time / capacity;
  }

  /// Fraction of node-time lost to inserted idle gaps.
  double iit_fraction() const {
    const double capacity = static_cast<double>(node_count) * horizon;
    return capacity <= 0.0 ? 0.0 : idle_gap_time / capacity;
  }

  /// Multi-line human-readable summary.
  std::string summary() const;
};

/// Counters of the admission-control service (`rtdlsd`): a plain-value
/// snapshot that Daemon::counters() reads out of the daemon's relaxed
/// atomics (one per field, no cross-field invariant), reported verbatim in
/// `status` replies and the storm harness. Lives here with the simulation
/// metrics because it is the same kind of artifact - aggregate run
/// accounting with a human-readable summary - just over requests instead of
/// simulated tasks.
struct ServiceCounters {
  // --- request volume, by type ---
  std::size_t connections = 0;  ///< accepted client connections
  std::size_t requests = 0;     ///< frames decoded and dispatched
  std::size_t admits = 0;
  std::size_t commits = 0;
  std::size_t cancels = 0;
  std::size_t status_queries = 0;
  std::size_t snapshots = 0;  ///< snapshot requests served (incl. final)

  // --- failure modes ---
  std::size_t errors = 0;    ///< error replies sent (bad frames/payloads/...)
  std::size_t timeouts = 0;  ///< requests that hit their wall-clock deadline

  // --- crash recovery ---
  std::size_t restores = 0;  ///< shards restored from a snapshot at startup

  /// One-line summary for logs and the storm harness.
  std::string summary() const;
};

}  // namespace rtdls::sim
