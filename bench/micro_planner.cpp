// google-benchmark microbenches for the batched planning kernels
// (BENCH_planner.json in CI). The het resolver's post-crossing walk and the
// OPR-MN comparator inspect O(N) prefixes per arrival; these benches pit the
// historical scalar evaluation (full alpha-column rebuild per inspected
// prefix, O(N^2) per walk) against the kernels that replaced it (the fused
// walk over the incremental cursor, the DLT equivalent-model columns).
// Both produce bit-identical estimates (see tests/planner_kernel_test.cpp);
// the benches measure only the cost.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <span>
#include <vector>

#include "cluster/types.hpp"
#include "dlt/het_model.hpp"
#include "sched/planner_batch.hpp"
#include "util/fp.hpp"

namespace {

using namespace rtdls;
using cluster::Time;

cluster::ClusterParams paper_params(std::size_t n) {
  return {.node_count = n, .cms = 1.0, .cps = 100.0};
}

std::vector<Time> staggered(std::size_t n) {
  std::vector<Time> available(n);
  for (std::size_t i = 0; i < n; ++i) available[i] = 137.0 * static_cast<double>(i);
  return available;
}

/// Deterministic per-node speeds around the paper's cps=100 mean (splitmix64;
/// no RNG dependency so the column is identical across runs and builds).
std::vector<double> het_cps(std::size_t n) {
  std::vector<double> cps(n);
  std::uint64_t state = 0x243F6A8885A308D3ull;
  for (std::size_t i = 0; i < n; ++i) {
    state += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    z ^= z >> 31;
    cps[i] = 5.0 + static_cast<double>(z >> 11) * 0x1.0p-53 * 495.0;
  }
  return cps;
}

// --- post-crossing walk: OPR-MN estimate at every prefix 1..N ---------------

/// The walk both benches below time. The row is idle (every node free at
/// 0: the tied stretch an idle cluster's DLT-IIT walk takes, and the shape
/// of every OPR-MN prefix), and the deadline clears every hard check but
/// is met by no prefix, so each of the N prefixes is hard-checked,
/// estimated and compared with the deadline. A cheap channel keeps alpha_n
/// from decaying geometrically along the prefix, so every estimate stays
/// above the deadline: the slack is just over sigma*cms, and each estimate
/// adds alpha_n*sigma*cps_n >> 1e-3.
struct WalkInput {
  explicit WalkInput(std::size_t n) : free(n, 0.0), cps(het_cps(n)) {}
  std::vector<Time> free;
  std::vector<double> cps;
  double sigma = 200.0;
  double cms = 0.01;
  Time deadline = sigma * cms + 1e-3;
};

/// Historical scalar walk: rebuild the full alpha column per inspected
/// prefix. O(N^2) per walk - the cost the incremental cursor removed.
void BM_PlannerWalkScalar(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const WalkInput in(n);
  std::vector<double> alpha;
  for (auto _ : state) {
    Time estimate = 0.0;
    std::size_t prefix = 1;
    for (; prefix <= n; ++prefix) {
      const Time rn = in.free[prefix - 1];
      if (sched::het::hard_reject(in.sigma, in.cms, in.deadline, rn) !=
          dlt::Infeasibility::kNone) {
        break;
      }
      dlt::general_het_alpha_into(in.cms, in.cps, prefix, alpha);
      estimate = rn + (in.sigma * in.cms + alpha.back() * in.sigma * in.cps[prefix - 1]);
      if (fp::at_or_before(estimate, in.deadline)) break;
    }
    if (prefix != n + 1) {
      state.SkipWithError("the walk stopped before prefix N");
      break;
    }
    benchmark::DoNotOptimize(estimate);
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_PlannerWalkScalar)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096)->Complexity();

/// The replacement, as the planner runs it: the fused kernel
/// (PlannerBatch::reference_walk) over prefixes 1..N, one shared
/// AlphaRecurrence cursor, O(1) per inspected prefix, O(N) per walk.
void BM_PlannerWalkIncremental(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const WalkInput in(n);
  sched::het::PlannerBatch batch;
  for (auto _ : state) {
    batch.begin_walk(in.cms, in.sigma);
    const sched::het::PlannerBatch::WalkStop stop =
        batch.reference_walk(in.free.data(), in.cps.data(), 1, n, 0, in.deadline);
    if (stop.accepted || stop.estimated != n) {
      state.SkipWithError("the walk stopped before prefix N");
      break;
    }
    benchmark::DoNotOptimize(stop.estimate);
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_PlannerWalkIncremental)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096)->Complexity();

// --- DLT-IIT estimate: generalized Eq.-1 two-stage model --------------------

/// Historical per-prefix evaluation: full HetPartition construction
/// (allocating columns + O(prefix) E_ref rebuild) per inspected prefix.
void BM_PlannerDltScalar(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto params = paper_params(n);
  const auto free_times = staggered(n);
  const auto cps = het_cps(n);
  dlt::HetPartition partition;
  for (auto _ : state) {
    Time last = 0.0;
    for (std::size_t prefix = 1; prefix <= n; ++prefix) {
      dlt::build_het_partition_into(params, 200.0, free_times, cps, prefix, partition);
      last = partition.estimated_completion();
    }
    benchmark::DoNotOptimize(last);
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_PlannerDltScalar)->Arg(64)->Arg(256)->Arg(1024)->Complexity();

/// The replacement: E_ref from the cursor in O(1), then the vectorizable
/// cps_tilde/ratio column passes. Still O(prefix) per estimate (the tilde
/// model depends on r_n, so the column genuinely changes), but with the
/// E_ref rebuild gone and the passes running on flat reused columns.
void BM_PlannerDltWalk(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto params = paper_params(n);
  const auto free_times = staggered(n);
  const auto cps = het_cps(n);
  sched::het::PlannerBatch batch;
  for (auto _ : state) {
    batch.begin_walk(params.cms, 200.0);
    Time last = 0.0;
    for (std::size_t prefix = 1; prefix <= n; ++prefix) {
      last = batch.dlt_walk_estimate(free_times, cps, prefix);
    }
    benchmark::DoNotOptimize(last);
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_PlannerDltWalk)->Arg(64)->Arg(256)->Arg(1024)->Complexity();

// --- backfill window kernels ------------------------------------------------

/// Seed-window durations for m = 1..N riding the shared cursor (the
/// OPR-MN-BF per-candidate-time sweep) vs the one-shot streaming kernel
/// (dlt::general_het_execution_time, which OPR-MN-BF's re-selected windows
/// call) invoked per m from scratch on the m-prefix.
void BM_PlannerWindowPrefix(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto cps = het_cps(n);
  sched::het::PlannerBatch batch;
  for (auto _ : state) {
    batch.begin_walk(1.0, 200.0);
    Time last = 0.0;
    for (std::size_t m = 1; m <= n; ++m) last = batch.window_duration_prefix(cps, m);
    benchmark::DoNotOptimize(last);
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_PlannerWindowPrefix)->Arg(64)->Arg(256)->Arg(1024)->Complexity();

void BM_PlannerWindowOneShot(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto cps = het_cps(n);
  for (auto _ : state) {
    Time last = 0.0;
    for (std::size_t m = 1; m <= n; ++m) {
      last = dlt::general_het_execution_time(1.0, std::span<const double>(cps).first(m), 200.0);
    }
    benchmark::DoNotOptimize(last);
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_PlannerWindowOneShot)->Arg(64)->Arg(256)->Arg(1024)->Complexity();

}  // namespace
