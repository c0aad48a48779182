// Differential property tests for the batched planning kernels
// (dlt::AlphaRecurrence + sched::het::PlannerBatch).
//
// The kernels' contract is not "close": every incremental / SoA path must
// return the BIT-identical value of the scalar reference it replaced
// (general_het_alpha_into / build_het_partition_into), at every prefix
// length, because admission outcomes are compared bitwise by the
// cross-check. Pillars:
//  1. AlphaRecurrence vs the scalar recurrence across graded sizes
//     n in {1e2, 1e3, 1e4, 1e5}, het and homogeneous columns.
//  2. PlannerBatch walk and window kernels vs their scalar references,
//     full prefix sweeps at small n and sampled prefixes at large n.
//  3. The OPR-MN-BF fixed-point fallback: an engineered (selection,
//     duration) 2-cycle that the bounded iteration used to skip silently
//     must now be detected, counted, and resolved conservatively.
//  4. Cross-check-armed EDF/FIFO x DLT/MR2/OPR-MN-BF simulations (het and
//     homogeneous) under overloads that force front hard-rejections, so the
//     incremental session's rejections at the availability front are held
//     to the stateless reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "cluster/calendar.hpp"
#include "cluster/speed_profile.hpp"
#include "dlt/het_model.hpp"
#include "sched/het_planner.hpp"
#include "sched/planner_batch.hpp"
#include "sched/registry.hpp"
#include "sim/simulator.hpp"
#include "workload/generator.hpp"

namespace rtdls {
namespace {

using cluster::SpeedProfile;
using cluster::Time;

/// Deterministic splitmix64 stream (same idiom as the other suites).
struct TestRng {
  std::uint64_t state;
  explicit TestRng(std::uint64_t seed) : state(seed) {}
  std::uint64_t next() {
    state += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  double uniform(double lo, double hi) {
    const double u = static_cast<double>(next() >> 11) * 0x1.0p-53;
    return lo + u * (hi - lo);
  }
  std::size_t index(std::size_t n) { return static_cast<std::size_t>(next() % n); }
};

std::vector<double> random_cps(TestRng& rng, std::size_t n, bool heterogeneous) {
  std::vector<double> cps(n);
  for (auto& c : cps) c = heterogeneous ? rng.uniform(5.0, 500.0) : 100.0;
  return cps;
}

std::vector<Time> sorted_free_times(TestRng& rng, std::size_t n, double spread) {
  std::vector<Time> free_times(n);
  for (auto& t : free_times) t = rng.uniform(0.0, spread);
  std::sort(free_times.begin(), free_times.end());
  return free_times;
}

// --- 1. AlphaRecurrence vs the scalar recurrence ----------------------------

TEST(AlphaRecurrence, BitIdenticalToScalarKernelAcrossGradedSizes) {
  const std::size_t kGrades[] = {100, 1000, 10000, 100000};
  for (const bool het : {true, false}) {
    TestRng rng(het ? 41 : 43);
    const double cms = rng.uniform(0.2, 5.0);
    const std::vector<double> cps = random_cps(rng, kGrades[3], het);

    dlt::AlphaRecurrence cursor;
    cursor.reset(cms);
    std::vector<double> reference;
    std::vector<double> materialized;
    std::size_t grade = 0;
    for (std::size_t n = 1; n <= cps.size(); ++n) {
      cursor.extend(cps[n - 1]);
      if (n != kGrades[grade]) continue;
      ++grade;
      // The scalar reference at this exact prefix: full column each time.
      dlt::general_het_alpha_into(cms, cps, n, reference);
      ASSERT_EQ(cursor.size(), n);
      ASSERT_EQ(cursor.alpha_last(), reference.back()) << "n=" << n << " het=" << het;
      cursor.materialize(materialized);
      ASSERT_EQ(materialized, reference) << "n=" << n << " het=" << het;
    }
    ASSERT_EQ(grade, 4u);
  }
}

TEST(AlphaRecurrence, ResetReusesCapacityAndRestartsCleanly) {
  dlt::AlphaRecurrence cursor;
  std::vector<double> reference;
  std::vector<double> materialized;
  const std::vector<double> cps = {100.0, 40.0, 250.0, 9.0};
  for (int round = 0; round < 3; ++round) {
    const double cms = 1.0 + static_cast<double>(round);
    cursor.reset(cms);
    for (double c : cps) cursor.extend(c);
    dlt::general_het_alpha_into(cms, cps, reference);
    cursor.materialize(materialized);
    ASSERT_EQ(materialized, reference) << "round " << round;
  }
  EXPECT_THROW(cursor.reset(0.0), std::invalid_argument);
  cursor.reset(1.0);
  EXPECT_THROW(cursor.extend(-1.0), std::invalid_argument);
}

TEST(GeneralHetExecutionTime, StreamingPathMatchesMaterializedAlpha) {
  // The allocation-free estimate must equal the formula evaluated on the
  // materialized alpha vector, bit for bit, at every size.
  TestRng rng(47);
  std::vector<double> alpha;
  for (int round = 0; round < 200; ++round) {
    const std::size_t n = 1 + rng.index(64);
    const double cms = rng.uniform(0.2, 5.0);
    const double sigma = rng.uniform(0.5, 4000.0);
    const std::vector<double> cps = random_cps(rng, n, round % 2 == 0);
    dlt::general_het_alpha_into(cms, cps, alpha);
    const double expected = sigma * cms + alpha.back() * sigma * cps.back();
    ASSERT_EQ(dlt::general_het_execution_time(cms, cps, sigma), expected)
        << "round " << round;
  }
}

// --- 2. PlannerBatch kernels vs their scalar references ---------------------

/// The fused kernel's estimate at exactly one prefix: a walk over
/// [prefix, prefix] that skips the hard check (clear = prefix) and accepts
/// whatever the estimate (an infinite deadline).
Time kernel_estimate_at(sched::het::PlannerBatch& batch, const std::vector<Time>& free_times,
                        const std::vector<double>& cps, std::size_t prefix) {
  const sched::het::PlannerBatch::WalkStop stop =
      batch.reference_walk(free_times.data(), cps.data(), prefix, prefix, prefix,
                           std::numeric_limits<Time>::infinity());
  EXPECT_TRUE(stop.accepted);
  EXPECT_EQ(stop.estimated, 1u);
  return stop.estimate;
}

TEST(PlannerBatch, OprWalkMatchesScalarAtEveryPrefix) {
  TestRng rng(53);
  sched::het::PlannerBatch batch;
  std::vector<double> alpha;
  for (const std::size_t n : {1024u, 4096u}) {
    const double cms = rng.uniform(0.2, 5.0);
    const double sigma = rng.uniform(10.0, 4000.0);
    const std::vector<double> cps = random_cps(rng, n, true);
    const std::vector<Time> free_times = sorted_free_times(rng, n, 10000.0);

    batch.begin_walk(cms, sigma);
    for (std::size_t prefix = 1; prefix <= n; ++prefix) {
      const Time got = kernel_estimate_at(batch, free_times, cps, prefix);
      dlt::general_het_alpha_into(cms, cps, prefix, alpha);
      const double exec = sigma * cms + alpha.back() * sigma * cps[prefix - 1];
      ASSERT_EQ(got, free_times[prefix - 1] + exec) << "prefix " << prefix;
    }
    batch.materialize_walk_alpha(alpha);
    std::vector<double> reference;
    dlt::general_het_alpha_into(cms, cps, n, reference);
    ASSERT_EQ(alpha, reference);

    // One walk over uneven blocks that never accepts (no deadline is met)
    // leaves the cursor where the per-prefix walk left it.
    batch.begin_walk(cms, sigma);
    std::size_t first = 1;
    while (first <= n) {
      const std::size_t last = std::min(n, first + rng.index(130));
      const sched::het::PlannerBatch::WalkStop stop =
          batch.reference_walk(free_times.data(), cps.data(), first, last, n,
                               -std::numeric_limits<Time>::infinity());
      ASSERT_FALSE(stop.accepted);
      ASSERT_EQ(stop.estimated, last - first + 1);
      first = last + 1;
    }
    batch.materialize_walk_alpha(alpha);
    ASSERT_EQ(alpha, reference);
  }
}

TEST(PlannerBatch, DltWalkMatchesPartitionBuildAcrossGradedSizes) {
  // Full prefix sweeps at small n; strictly increasing sampled prefixes at
  // the large grades (the scalar rebuild is O(n) per prefix, so a full
  // sweep at 1e5 would be 1e10 operations). Each grade runs distinct free
  // times and columns whose first k entries are floored to one `now`
  // (k in {1, n/2, n}). A tied prefix (r_n == r_1, every prefix <= k, and
  // prefix 1 of the distinct column) takes the fused kernel's reference
  // estimate, an untied one dlt_walk_estimate's equivalent model; both the
  // estimate and the materialized alpha must match the partition build
  // bit for bit.
  TestRng rng(59);
  sched::het::PlannerBatch batch;
  dlt::HetPartition partition;
  std::vector<double> alpha;
  const cluster::ClusterParams base{.node_count = 1, .cms = 1.0, .cps = 100.0};
  const std::size_t kGrades[] = {100, 1000, 10000, 100000};
  for (const std::size_t n : kGrades) {
    cluster::ClusterParams params = base;
    params.node_count = n;
    params.cms = rng.uniform(0.2, 5.0);
    const double sigma = rng.uniform(10.0, 4000.0);
    const std::vector<double> cps = random_cps(rng, n, true);
    const std::vector<Time> distinct = sorted_free_times(rng, n, 10000.0);

    // tied == 0: the distinct column as drawn.
    for (const std::size_t tied : {std::size_t{0}, std::size_t{1}, n / 2, n}) {
      std::vector<Time> free_times = distinct;
      if (tied > 0) {
        const Time now = distinct[tied - 1];
        for (Time& t : free_times) t = std::max(t, now);
      }
      std::vector<std::size_t> prefixes;
      const std::size_t stride = n <= 1000 ? 1 : n / 64;
      for (std::size_t prefix = 1; prefix <= n; prefix += stride) prefixes.push_back(prefix);
      for (const std::size_t edge : {tied, tied + 1, n}) {
        if (edge >= 1 && edge <= n) prefixes.push_back(edge);
      }
      std::sort(prefixes.begin(), prefixes.end());
      prefixes.erase(std::unique(prefixes.begin(), prefixes.end()), prefixes.end());

      batch.begin_walk(params.cms, sigma);
      for (const std::size_t prefix : prefixes) {
        const bool on_stretch = free_times[prefix - 1] == free_times[0];
        ASSERT_EQ(on_stretch, prefix <= std::max<std::size_t>(tied, 1))
            << "n=" << n << " tied=" << tied << " prefix=" << prefix;
        const Time got = on_stretch ? kernel_estimate_at(batch, free_times, cps, prefix)
                                    : batch.dlt_walk_estimate(free_times, cps, prefix);
        dlt::build_het_partition_into(params, sigma, free_times, cps, prefix, partition);
        ASSERT_EQ(got, partition.estimated_completion())
            << "n=" << n << " tied=" << tied << " prefix=" << prefix;
        // Every prefix at the small grades; the tied/untied edges and the
        // last prefix at the large ones (materializing is O(prefix)).
        if (n <= 1000 || prefix == tied || prefix == tied + 1 || prefix == n) {
          if (on_stretch) {
            batch.materialize_walk_alpha(alpha);
          } else {
            batch.materialize_dlt_alpha(alpha);
          }
          ASSERT_EQ(alpha, partition.alpha)
              << "n=" << n << " tied=" << tied << " prefix=" << prefix;
        }
      }
    }
  }
}

TEST(PlannerBatch, WindowKernelsMatchScalarBackfillDuration) {
  TestRng rng(67);
  sched::het::PlannerBatch batch;
  std::vector<double> alpha;
  const double cms = 0.8;
  const double sigma = 700.0;
  const std::vector<double> pool_cps = random_cps(rng, 512, true);
  batch.begin_walk(cms, sigma);
  for (std::size_t m = 1; m <= pool_cps.size(); ++m) {
    dlt::general_het_alpha_into(cms, pool_cps, m, alpha);
    const double expected = sigma * cms + alpha.back() * sigma * pool_cps[m - 1];
    // Pool-prefix (cursor) and one-shot (streaming) forms, both bit-exact.
    ASSERT_EQ(batch.window_duration_prefix(pool_cps, m), expected) << "m=" << m;
    ASSERT_EQ(dlt::general_het_execution_time(cms, std::span<const double>(pool_cps).first(m),
                                              sigma),
              expected)
        << "m=" << m;
  }
}

// --- 3. OPR-MN-BF fixed-point fallback --------------------------------------

TEST(BackfillFixedPoint, EngineeredTwoCycleTakesConservativeFallback) {
  // Node 0 (slow, cps=100) is only free over [0, 50): its one-node window
  // needs sigma*(cms+cps) = 101 > 50. Node 1 (fast, cps=10) is always free
  // and needs 11 < 50. The m=1 fixed point therefore 2-cycles:
  //   seed (instant-free, lowest id) -> node 0 -> duration 101
  //   select over [0, 101]          -> node 1 -> duration 11
  //   select over [0, 11]           -> node 0 -> duration 101  ...
  // The bounded iteration used to skip this m silently; the fallback must
  // detect the non-convergence, count it, select over W = max(101, 11), and
  // accept node 1's self-consistent [0, 11) window.
  cluster::ClusterParams params{.node_count = 2, .cms = 1.0, .cps = 100.0};
  params.speed_profile =
      std::make_shared<const SpeedProfile>(SpeedProfile({100.0, 10.0}));
  ASSERT_TRUE(params.heterogeneous());

  cluster::NodeCalendar calendar(2);
  calendar.reserve(0, 50.0, 1000.0);
  ASSERT_TRUE(calendar.is_free(0, 0.0, 0.0));
  ASSERT_TRUE(calendar.is_free(0, 0.0, 11.0));
  ASSERT_FALSE(calendar.is_free(0, 0.0, 101.0));

  workload::Task task;
  task.id = 1;
  task.spec = {0.0, 1.0, 2000.0};

  sched::PlanRequest request;
  request.task = &task;
  request.params = params;
  request.now = 0.0;
  request.calendar = &calendar;

  sched::het::PlannerScratch scratch;
  const sched::PlanResult result = sched::het::plan_opr_mn_backfill(request, scratch);
  ASSERT_TRUE(result.feasible());
  EXPECT_EQ(scratch.counters.backfill_fixed_point_fallbacks, 1u);
  ASSERT_EQ(result.plan.nodes, 1u);
  ASSERT_EQ(result.plan.node_ids, std::vector<cluster::NodeId>{1});
  // The accepted window is node 1's own fixed point: exec = 1*(1 + 1*10).
  EXPECT_EQ(result.plan.est_completion, 11.0);
  // Conservative-window guarantee: the member really is free across it.
  EXPECT_TRUE(calendar.is_free(1, 0.0, result.plan.est_completion));
}

TEST(BackfillFixedPoint, RuleExposesAndResetsFallbackCounter) {
  cluster::ClusterParams params{.node_count = 2, .cms = 1.0, .cps = 100.0};
  params.speed_profile =
      std::make_shared<const SpeedProfile>(SpeedProfile({100.0, 10.0}));
  cluster::NodeCalendar calendar(2);
  calendar.reserve(0, 50.0, 1000.0);

  workload::Task task;
  task.id = 1;
  task.spec = {0.0, 1.0, 2000.0};
  const cluster::AvailabilityView row({{0.0, 0.0}, {0, 1}});

  sched::PlanRequest request;
  request.task = &task;
  request.params = params;
  request.row = &row;
  request.now = 0.0;
  request.calendar = &calendar;

  const sched::Algorithm algorithm = sched::make_algorithm("EDF-OPR-MN-BF");
  ASSERT_TRUE(algorithm.rule->plan(request).feasible());
  EXPECT_EQ(algorithm.rule->planner_counters().backfill_fixed_point_fallbacks, 1u);
  ASSERT_TRUE(algorithm.rule->plan(request).feasible());
  EXPECT_EQ(algorithm.rule->planner_counters().backfill_fixed_point_fallbacks, 2u);
  algorithm.rule->reset_planner_counters();
  EXPECT_EQ(algorithm.rule->planner_counters().backfill_fixed_point_fallbacks, 0u);
}

// --- 4. cross-check-armed planner property runs -----------------------------

/// Overloaded bursts with deadlines tight enough that waiting tasks' slack
/// runs out at the availability front, so the rules' first-position hard
/// rejections fire inside suffix re-plans. The armed cross-check throws on
/// ANY divergence (acceptance, reason, blocking task, every adopted plan
/// bitwise) from the stateless Figure-2 test.
class PlannerKernelSims
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {};

TEST_P(PlannerKernelSims, ScreenedIncrementalMatchesUnscreenedReference) {
  const auto& [algorithm, profile] = GetParam();
  workload::WorkloadParams params;
  params.cluster = {.node_count = 256, .cms = 1.0, .cps = 100.0};
  params.system_load = 8.0;
  params.dc_ratio = 3.0;  // tight deadlines: front hard-rejections occur
  params.total_time = 4000.0;
  params.seed = 20070227;
  const auto tasks = workload::generate_workload(params);

  sim::SimulatorConfig config;
  config.params = params.cluster;
  if (!profile.empty()) {
    config.params.speed_profile = std::make_shared<const SpeedProfile>(
        cluster::parse_speed_profile(profile, params.cluster.node_count,
                                     params.cluster.cps));
    ASSERT_TRUE(config.params.heterogeneous());
  }
  const bool calendar_rule = algorithm.find("-BF") != std::string::npos;
  config.cross_check_admission = !calendar_rule;

  const sim::SimMetrics metrics =
      sim::simulate(config, algorithm, tasks, params.total_time);
  ASSERT_GT(metrics.arrivals, 100u);
  EXPECT_GT(metrics.accepted, 0u) << algorithm;
  EXPECT_GT(metrics.rejected, 0u) << algorithm;
  if (!calendar_rule) {
    // The overload must actually reach the hard-rejection families or this
    // test exercises nothing.
    const std::size_t hard =
        metrics.reject_reasons[static_cast<std::size_t>(
            dlt::Infeasibility::kDeadlinePassed)] +
        metrics.reject_reasons[static_cast<std::size_t>(
            dlt::Infeasibility::kTransmissionTooLong)];
    EXPECT_GT(hard, 0u) << algorithm << " " << profile;
  }
}

INSTANTIATE_TEST_SUITE_P(
    PolicyByRule, PlannerKernelSims,
    ::testing::Combine(::testing::Values("EDF-DLT", "FIFO-DLT", "EDF-MR2",
                                         "EDF-OPR-MN", "EDF-OPR-MN-BF"),
                       ::testing::Values("", "lognormal:0.5,3")),
    [](const ::testing::TestParamInfo<std::tuple<std::string, std::string>>& info) {
      std::string name = std::get<0>(info.param) +
                         (std::get<1>(info.param).empty() ? "_hom" : "_het");
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace rtdls
