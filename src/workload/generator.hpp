// Workload generation exactly as Section 5 specifies:
//
//  * interarrival times ~ Exponential(mean 1/lambda);
//  * data sizes sigma_i ~ Normal(Avgsigma, stddev = Avgsigma), truncated to
//    positive values;
//  * relative deadlines D_i ~ Uniform[AvgD/2, 3AvgD/2] with
//    AvgD = DCRatio * E(Avgsigma, N), redrawn so that D_i > E(sigma_i, N)
//    (every generated task is feasible on the whole idle cluster);
//  * the user's requested node count for User-Split, uniform in [N_min, N],
//    drawn once per task;
//  * SystemLoad = E(Avgsigma, N) * lambda parameterizes the arrival rate:
//    1/lambda = E(Avgsigma, N) / SystemLoad.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/types.hpp"
#include "workload/rng.hpp"
#include "workload/task.hpp"

namespace rtdls::workload {

/// Parameters of one workload: the paper's simulation tuple
/// (N, Cms, Cps, SystemLoad, Avgsigma, DCRatio) plus horizon and seeding.
struct WorkloadParams {
  cluster::ClusterParams cluster;  ///< N, Cms, Cps
  double system_load = 0.5;        ///< SystemLoad in (0, ...]
  double avg_sigma = 200.0;        ///< Avgsigma: mean data size
  double dc_ratio = 2.0;           ///< DCRatio: mean deadline / mean min cost
  Time total_time = 10'000'000.0;  ///< arrivals generated in [0, total_time)
  std::uint64_t seed = 42;         ///< base RNG seed
  std::uint64_t stream = 0;        ///< run index; distinct streams per run

  /// AvgD = DCRatio * E(Avgsigma, N).
  double mean_deadline() const;

  /// Mean interarrival time 1/lambda = E(Avgsigma, N) / SystemLoad.
  double mean_interarrival() const;

  /// Valid cluster; finite, positive load, sigma, DCRatio and horizon.
  bool valid() const;
};

/// Generates the full task set for one simulation run. Tasks are returned in
/// arrival order with ids 0, 1, 2, ...
std::vector<Task> generate_workload(const WorkloadParams& params);

/// Draws a single task at `arrival` using the given generator; exposed so
/// tests can probe the per-task sampling rules directly.
Task generate_task(const WorkloadParams& params, Xoshiro256StarStar& rng,
                   cluster::TaskId id, Time arrival);

/// Empirical load of a generated task set: sum of minimum execution times
/// E(sigma_i, N) divided by the horizon. Converges to `system_load` as the
/// horizon grows; used by tests and the harness sanity report.
double empirical_load(const WorkloadParams& params, const std::vector<Task>& tasks);

}  // namespace rtdls::workload
