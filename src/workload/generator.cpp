#include "workload/generator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dlt/homogeneous.hpp"
#include "util/fp.hpp"
#include "dlt/user_split.hpp"
#include "workload/distributions.hpp"

namespace rtdls::workload {

namespace {
// A normal draw with stddev == mean is negative ~16% of the time; resample
// above this floor so loads stay physically meaningful.
constexpr double kMinSigmaFraction = 1e-6;
// Attempts at redrawing D_i before falling back to the clamp just above the
// minimum execution time (paper: "D_i is chosen to be larger than its
// minimum execution time E(sigma_i, N)").
constexpr int kDeadlineRedraws = 64;
}  // namespace

double WorkloadParams::mean_deadline() const {
  return dc_ratio * dlt::homogeneous_execution_time(cluster, avg_sigma, cluster.node_count);
}

double WorkloadParams::mean_interarrival() const {
  return dlt::homogeneous_execution_time(cluster, avg_sigma, cluster.node_count) / system_load;
}

bool WorkloadParams::valid() const {
  // Finite as well as positive: an infinite horizon or load never ends
  // generation (at infinite load the mean interarrival gap is 0).
  const auto positive = [](double x) { return std::isfinite(x) && x > 0.0; };
  return cluster.valid() && positive(system_load) && positive(avg_sigma) &&
         positive(dc_ratio) && positive(total_time);
}

Task generate_task(const WorkloadParams& params, Xoshiro256StarStar& rng,
                   cluster::TaskId id, Time arrival) {
  Task task;
  task.id = id;
  task.spec.arrival = arrival;

  // sigma_i ~ N(Avgsigma, Avgsigma^2), truncated positive.
  task.spec.sigma = sample_truncated_normal(rng, params.avg_sigma, params.avg_sigma,
                                            kMinSigmaFraction * params.avg_sigma);

  // D_i ~ U[AvgD/2, 3AvgD/2], redrawn until D_i > E(sigma_i, N); for very
  // large sigma_i even the top of the range cannot exceed E(sigma_i, N), in
  // which case D_i is clamped just above the minimum execution time.
  const double min_cost =
      dlt::homogeneous_execution_time(params.cluster, task.spec.sigma,
                                      params.cluster.node_count);
  const double avg_d = params.mean_deadline();
  double deadline = 0.0;
  for (int attempt = 0; attempt < kDeadlineRedraws; ++attempt) {
    deadline = sample_uniform(rng, avg_d / 2.0, 1.5 * avg_d);
    if (deadline > min_cost) break;
    deadline = 0.0;
  }
  if (fp::exact_eq(deadline, 0.0)) deadline = fp::rel_above(min_cost);
  task.spec.rel_deadline = deadline;

  // User-Split request: n ~ U{N_min, ..., N}. N_min can exceed N for tight
  // deadlines (equal split is suboptimal); the "user" then asks for the
  // whole cluster and admission control decides.
  const auto n_min = dlt::user_split_min_nodes(params.cluster, task.spec.sigma,
                                               task.spec.rel_deadline);
  const std::size_t n_cap = params.cluster.node_count;
  const std::size_t lo = std::min(n_min.value_or(n_cap), n_cap);
  task.user_nodes = static_cast<std::size_t>(
      sample_uniform_int(rng, static_cast<std::uint64_t>(lo),
                         static_cast<std::uint64_t>(n_cap)));
  return task;
}

std::vector<Task> generate_workload(const WorkloadParams& params) {
  if (!params.valid()) throw std::invalid_argument("generate_workload: invalid params");
  Xoshiro256StarStar rng = Xoshiro256StarStar::for_stream(params.seed, params.stream);

  std::vector<Task> tasks;
  const double mean_gap = params.mean_interarrival();
  Time now = 0.0;
  cluster::TaskId next_id = 0;
  while (true) {
    now += sample_exponential(rng, mean_gap);
    if (now >= params.total_time) break;
    tasks.push_back(generate_task(params, rng, next_id++, now));
  }
  return tasks;
}

double empirical_load(const WorkloadParams& params, const std::vector<Task>& tasks) {
  double total_cost = 0.0;
  for (const Task& task : tasks) {
    total_cost += dlt::homogeneous_execution_time(params.cluster, task.sigma(),
                                                  params.cluster.node_count);
  }
  return total_cost / params.total_time;
}

}  // namespace rtdls::workload
