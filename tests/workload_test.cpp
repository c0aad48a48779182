// Tests for the workload generator (Section 5 model) and trace persistence.
#include <gtest/gtest.h>

#include <limits>
#include <sstream>

#include "dlt/homogeneous.hpp"
#include "dlt/user_split.hpp"
#include "stats/running_stats.hpp"
#include "workload/generator.hpp"
#include "workload/trace.hpp"

namespace rtdls::workload {
namespace {

WorkloadParams baseline_params() {
  WorkloadParams params;
  params.cluster = {.node_count = 16, .cms = 1.0, .cps = 100.0};
  params.system_load = 0.5;
  params.avg_sigma = 200.0;
  params.dc_ratio = 2.0;
  params.total_time = 500000.0;
  params.seed = 2024;
  return params;
}

TEST(WorkloadParams, DerivedQuantities) {
  const WorkloadParams params = baseline_params();
  const double e_avg =
      dlt::homogeneous_execution_time(params.cluster, 200.0, 16);
  EXPECT_NEAR(params.mean_deadline(), 2.0 * e_avg, 1e-9);
  EXPECT_NEAR(params.mean_interarrival(), e_avg / 0.5, 1e-9);
  EXPECT_TRUE(params.valid());
}

TEST(WorkloadParams, InvalidDetection) {
  WorkloadParams params = baseline_params();
  params.system_load = 0.0;
  EXPECT_FALSE(params.valid());
  params = baseline_params();
  params.avg_sigma = -1.0;
  EXPECT_FALSE(params.valid());
  params = baseline_params();
  params.total_time = 0.0;
  EXPECT_FALSE(params.valid());
  EXPECT_THROW(generate_workload(params), std::invalid_argument);
}

TEST(WorkloadParams, NonFiniteParamsAreInvalid) {
  // An infinite horizon is never reached, and at infinite load the mean
  // interarrival gap is 0: either would generate until memory runs out.
  // ASSERT_FALSE guards each generation call: should valid() ever accept
  // these parameters again, the test stops before generating.
  const double inf = std::numeric_limits<double>::infinity();
  WorkloadParams params = baseline_params();
  params.total_time = inf;
  ASSERT_FALSE(params.valid());
  EXPECT_THROW(generate_workload(params), std::invalid_argument);
  params = baseline_params();
  params.system_load = inf;
  ASSERT_FALSE(params.valid());
  EXPECT_THROW(generate_workload(params), std::invalid_argument);
  params = baseline_params();
  params.avg_sigma = inf;
  EXPECT_FALSE(params.valid());
  params = baseline_params();
  params.dc_ratio = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(params.valid());
  // Infinite cluster costs fail validation up front, not mid-generation.
  params = baseline_params();
  params.cluster.cms = inf;
  ASSERT_FALSE(params.valid());
  EXPECT_THROW(generate_workload(params), std::invalid_argument);
  params = baseline_params();
  params.cluster.cps = inf;
  ASSERT_FALSE(params.valid());
  EXPECT_THROW(generate_workload(params), std::invalid_argument);
}

TEST(Generator, ArrivalsSortedWithinHorizonAndIdsSequential) {
  const auto tasks = generate_workload(baseline_params());
  ASSERT_FALSE(tasks.empty());
  for (size_t i = 0; i < tasks.size(); ++i) {
    EXPECT_EQ(tasks[i].id, i);
    EXPECT_GE(tasks[i].arrival(), 0.0);
    EXPECT_LT(tasks[i].arrival(), 500000.0);
    if (i > 0) {
      EXPECT_GE(tasks[i].arrival(), tasks[i - 1].arrival());
    }
  }
}

TEST(Generator, Deterministic) {
  const auto a = generate_workload(baseline_params());
  const auto b = generate_workload(baseline_params());
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].arrival(), b[i].arrival());
    EXPECT_DOUBLE_EQ(a[i].sigma(), b[i].sigma());
    EXPECT_DOUBLE_EQ(a[i].rel_deadline(), b[i].rel_deadline());
    EXPECT_EQ(a[i].user_nodes, b[i].user_nodes);
  }
}

TEST(Generator, StreamsProduceDifferentTraces) {
  WorkloadParams params = baseline_params();
  const auto a = generate_workload(params);
  params.stream = 1;
  const auto b = generate_workload(params);
  ASSERT_FALSE(a.empty());
  ASSERT_FALSE(b.empty());
  EXPECT_NE(a[0].sigma(), b[0].sigma());
}

TEST(Generator, EveryTaskFeasibleOnWholeCluster) {
  // The paper: D_i is chosen to be larger than E(sigma_i, N).
  const WorkloadParams params = baseline_params();
  for (const Task& task : generate_workload(params)) {
    const double min_cost =
        dlt::homogeneous_execution_time(params.cluster, task.sigma(), 16);
    EXPECT_GT(task.rel_deadline(), min_cost * (1.0 - 1e-12)) << "task " << task.id;
    EXPECT_GT(task.sigma(), 0.0);
  }
}

TEST(Generator, DeadlinesWithinPaperRangeWhenUnclamped) {
  const WorkloadParams params = baseline_params();
  const double avg_d = params.mean_deadline();
  for (const Task& task : generate_workload(params)) {
    // Clamped deadlines (huge sigma) may exceed the nominal range upward;
    // nothing may fall below AvgD/2 or above max(1.5 AvgD, its own clamp).
    EXPECT_GE(task.rel_deadline(), avg_d / 2.0 * (1.0 - 1e-12));
    const double min_cost =
        dlt::homogeneous_execution_time(params.cluster, task.sigma(), 16);
    EXPECT_LE(task.rel_deadline(), std::max(1.5 * avg_d, min_cost * (1.0 + 1e-6)));
  }
}

TEST(Generator, UserNodesWithinMinMaxRange) {
  const WorkloadParams params = baseline_params();
  for (const Task& task : generate_workload(params)) {
    EXPECT_GE(task.user_nodes, 1u);
    EXPECT_LE(task.user_nodes, 16u);
    const auto n_min =
        dlt::user_split_min_nodes(params.cluster, task.sigma(), task.rel_deadline());
    if (n_min.has_value() && *n_min <= 16) {
      EXPECT_GE(task.user_nodes, *n_min) << "task " << task.id;
    }
  }
}

TEST(Generator, EmpiricalLoadNearTarget) {
  WorkloadParams params = baseline_params();
  params.total_time = 3000000.0;
  const auto tasks = generate_workload(params);
  // Truncating N(mu, mu) at zero inflates the mean by the hazard-rate term
  // mu * phi(-1)/(1 - Phi(-1)) ~ 0.2876 mu, so the realized load overshoots
  // the nominal SystemLoad by ~28.8%.
  const double inflation = 1.2876;
  EXPECT_NEAR(empirical_load(params, tasks), 0.5 * inflation, 0.05);
}

TEST(Generator, ArrivalRateMatchesLambda) {
  WorkloadParams params = baseline_params();
  params.total_time = 3000000.0;
  const auto tasks = generate_workload(params);
  const double expected = params.total_time / params.mean_interarrival();
  EXPECT_NEAR(static_cast<double>(tasks.size()) / expected, 1.0, 0.1);
}

TEST(Generator, MeanSigmaAboveNominalDueToTruncation) {
  WorkloadParams params = baseline_params();
  params.total_time = 3000000.0;
  stats::RunningStats sigma;
  for (const Task& task : generate_workload(params)) sigma.add(task.sigma());
  // Analytic truncated-normal mean: 200 * 1.2876 ~ 257.5.
  EXPECT_NEAR(sigma.mean(), 257.5, 7.0);
}

// --- trace persistence -------------------------------------------------------

TEST(Trace, RoundTripPreservesEverything) {
  WorkloadParams params = baseline_params();
  params.total_time = 100000.0;
  const auto tasks = generate_workload(params);
  ASSERT_FALSE(tasks.empty());

  std::stringstream buffer;
  save_trace(buffer, tasks);
  const auto loaded = load_trace(buffer);
  ASSERT_EQ(loaded.size(), tasks.size());
  for (size_t i = 0; i < tasks.size(); ++i) {
    EXPECT_EQ(loaded[i].id, tasks[i].id);
    EXPECT_DOUBLE_EQ(loaded[i].arrival(), tasks[i].arrival());
    EXPECT_DOUBLE_EQ(loaded[i].sigma(), tasks[i].sigma());
    EXPECT_DOUBLE_EQ(loaded[i].rel_deadline(), tasks[i].rel_deadline());
    EXPECT_EQ(loaded[i].user_nodes, tasks[i].user_nodes);
  }
}

TEST(Trace, EmptyTaskListRoundTrip) {
  std::stringstream buffer;
  save_trace(buffer, {});
  EXPECT_TRUE(load_trace(buffer).empty());
}

TEST(Trace, RejectsWrongHeader) {
  std::stringstream buffer("id,arrival,sigma,WRONG,user_nodes\n1,2,3,4,5\n");
  EXPECT_THROW(load_trace(buffer), std::runtime_error);
}

TEST(Trace, RejectsNonNumericField) {
  std::stringstream buffer("id,arrival,sigma,deadline,user_nodes\n1,2,abc,4,5\n");
  EXPECT_THROW(load_trace(buffer), std::runtime_error);
}

TEST(Trace, RejectsOutOfRangeValues) {
  std::stringstream negative_sigma("id,arrival,sigma,deadline,user_nodes\n1,2,-3,4,5\n");
  EXPECT_THROW(load_trace(negative_sigma), std::runtime_error);
  std::stringstream zero_deadline("id,arrival,sigma,deadline,user_nodes\n1,2,3,0,5\n");
  EXPECT_THROW(load_trace(zero_deadline), std::runtime_error);
}

TEST(Trace, RejectsWrongColumnCount) {
  std::stringstream buffer("id,arrival,sigma,deadline,user_nodes\n1,2,3\n");
  EXPECT_THROW(load_trace(buffer), std::runtime_error);
}

TEST(Trace, FileMissingThrows) {
  EXPECT_THROW(load_trace_file("/nonexistent/dir/trace.csv"), std::runtime_error);
  EXPECT_THROW(save_trace_file("/nonexistent/dir/trace.csv", {}), std::runtime_error);
}

TEST(Trace, ErrorsNameTheOffendingRow) {
  // The simulator rejects unsorted traces at run() with no pointer to the
  // culprit; the loader must instead say exactly which data row is bad.
  std::stringstream nan_sigma(
      "id,arrival,sigma,deadline,user_nodes\n1,2,3,4,5\n2,3,nan,4,5\n");
  try {
    load_trace(nan_sigma);
    FAIL() << "NaN sigma accepted";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("row 2"), std::string::npos) << error.what();
    EXPECT_NE(std::string(error.what()).find("sigma"), std::string::npos) << error.what();
  }
  std::stringstream inf_deadline(
      "id,arrival,sigma,deadline,user_nodes\n1,2,3,inf,5\n");
  EXPECT_THROW(load_trace(inf_deadline), std::runtime_error);
  std::stringstream negative_arrival(
      "id,arrival,sigma,deadline,user_nodes\n1,-2,3,4,5\n");
  EXPECT_THROW(load_trace(negative_arrival), std::runtime_error);
  // id/user_nodes feed integer casts: a -1 id would cast to the kNoTask
  // sentinel, so non-integers and negatives are rejected up front.
  std::stringstream negative_id("id,arrival,sigma,deadline,user_nodes\n-1,2,3,4,5\n");
  EXPECT_THROW(load_trace(negative_id), std::runtime_error);
  std::stringstream fractional_id("id,arrival,sigma,deadline,user_nodes\n1.5,2,3,4,5\n");
  EXPECT_THROW(load_trace(fractional_id), std::runtime_error);
  std::stringstream huge_nodes(
      "id,arrival,sigma,deadline,user_nodes\n1,2,3,4,1e300\n");
  EXPECT_THROW(load_trace(huge_nodes), std::runtime_error);
}

TEST(Trace, RejectsDecreasingArrivalsUnlessSortingRequested) {
  const std::string text =
      "id,arrival,sigma,deadline,user_nodes\n"
      "1,50,3,4,5\n"
      "2,10,3,4,5\n"
      "3,50,7,4,5\n";
  std::stringstream unsorted(text);
  try {
    load_trace(unsorted);
    FAIL() << "decreasing arrivals accepted";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("row 2"), std::string::npos) << error.what();
  }

  // Opt-in sorting reorders by arrival, ties keeping file order (stable).
  std::stringstream resort(text);
  const auto sorted = load_trace(resort, /*sort_arrivals=*/true);
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_EQ(sorted[0].id, 2u);
  EXPECT_EQ(sorted[1].id, 1u);  // tie at t=50: file order preserved
  EXPECT_EQ(sorted[2].id, 3u);
}

}  // namespace
}  // namespace rtdls::workload
