// google-benchmark microbenches for the simulation machinery: a full
// admission test, and whole-simulation runs per second.
#include <benchmark/benchmark.h>

#include <memory>

#include "cluster/speed_profile.hpp"
#include "sched/admission.hpp"
#include "sched/registry.hpp"
#include "sim/simulator.hpp"
#include "workload/generator.hpp"

namespace {

using namespace rtdls;

void BM_AdmissionTest(benchmark::State& state) {
  const auto queue_length = static_cast<std::size_t>(state.range(0));
  const cluster::ClusterParams params{.node_count = 16, .cms = 1.0, .cps = 100.0};
  const sched::Algorithm algorithm = sched::make_algorithm("EDF-DLT");
  sched::AdmissionController controller(algorithm.policy, algorithm.rule.get());

  std::vector<workload::Task> tasks(queue_length + 1);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    tasks[i].id = i;
    tasks[i].spec = {0.0, 200.0, 50000.0 + 1000.0 * static_cast<double>(i)};
  }
  std::vector<const workload::Task*> waiting;
  for (std::size_t i = 0; i < queue_length; ++i) waiting.push_back(&tasks[i]);
  const std::vector<cluster::Time> free_times(16, 0.0);

  for (auto _ : state) {
    benchmark::DoNotOptimize(
        controller.test(&tasks.back(), waiting, params, free_times, 0.0));
  }
}
BENCHMARK(BM_AdmissionTest)->Arg(0)->Arg(8)->Arg(64);

void BM_FullSimulation(benchmark::State& state) {
  const double load = static_cast<double>(state.range(0)) / 10.0;
  workload::WorkloadParams params;
  params.cluster = {.node_count = 16, .cms = 1.0, .cps = 100.0};
  params.system_load = load;
  params.total_time = 200000.0;
  params.seed = 1;
  const auto tasks = workload::generate_workload(params);
  sim::SimulatorConfig config;
  config.params = params.cluster;

  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::simulate(config, "EDF-DLT", tasks, params.total_time));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * tasks.size()));
  state.counters["tasks"] = static_cast<double>(tasks.size());
}
BENCHMARK(BM_FullSimulation)->Arg(3)->Arg(8)->Arg(10);

// The acceptance scenario for the incremental-admission + availability-index
// work: a high-load EDF sweep with loose deadlines (DCRatio 20), where the
// waiting queue is deep and the Figure-2 re-plan of every waiting task
// dominates. Args are (dc_ratio, node_count); the N=256/1024 variants stress
// the per-plan availability handling (the index replaces the O(N log N)
// re-sorts). The horizon shrinks with N so each variant simulates a
// comparable number of arrivals (larger N -> shorter E -> faster arrivals).
void BM_HighLoadSweep(benchmark::State& state) {
  const double dc_ratio = static_cast<double>(state.range(0));
  const auto node_count = static_cast<std::size_t>(state.range(1));
  const double horizon = 400000.0 * 16.0 / static_cast<double>(node_count);
  std::vector<std::vector<workload::Task>> traces;
  std::size_t total_tasks = 0;
  for (double load : {0.8, 1.0}) {
    workload::WorkloadParams params;
    params.cluster = {.node_count = node_count, .cms = 1.0, .cps = 100.0};
    params.system_load = load;
    params.dc_ratio = dc_ratio;
    params.total_time = horizon;
    params.seed = 7;
    traces.push_back(workload::generate_workload(params));
    total_tasks += traces.back().size();
  }
  sim::SimulatorConfig config;
  config.params = {.node_count = node_count, .cms = 1.0, .cps = 100.0};

  const sched::Algorithm algorithm = sched::make_algorithm("EDF-DLT");
  sim::ClusterSimulator simulator(config, algorithm);
  for (auto _ : state) {
    for (const auto& tasks : traces) {
      benchmark::DoNotOptimize(simulator.run(tasks, horizon));
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * total_tasks));
}
BENCHMARK(BM_HighLoadSweep)
    ->Args({2, 16})
    ->Args({20, 16})
    ->Args({20, 256})
    ->Args({20, 1024})
    ->Unit(benchmark::kMillisecond);

// Heterogeneous-cluster acceptance scenario: the same high-load EDF sweep
// through the het planning path (per-prefix generalized Eq.-1 partitions,
// id-tracked admission state, per-slot rollouts). Args are
// (speed CV x 100, node_count); cv=0 runs an all-equal profile - i.e. the
// homogeneous fast path with the profile attached - so the het-vs-fast-path
// overhead is the cv=0 vs BM_HighLoadSweep/20/<N> delta and the het planning
// cost is the cv>0 vs cv=0 delta.
void BM_HetSweep(benchmark::State& state) {
  const double cv = static_cast<double>(state.range(0)) / 100.0;
  const auto node_count = static_cast<std::size_t>(state.range(1));
  const double horizon = 400000.0 * 16.0 / static_cast<double>(node_count);
  std::vector<std::vector<workload::Task>> traces;
  std::size_t total_tasks = 0;
  for (double load : {0.8, 1.0}) {
    workload::WorkloadParams params;
    params.cluster = {.node_count = node_count, .cms = 1.0, .cps = 100.0};
    params.system_load = load;
    params.dc_ratio = 20.0;
    params.total_time = horizon;
    params.seed = 7;
    traces.push_back(workload::generate_workload(params));
    total_tasks += traces.back().size();
  }
  sim::SimulatorConfig config;
  config.params = {.node_count = node_count, .cms = 1.0, .cps = 100.0};
  config.params.speed_profile = std::make_shared<const cluster::SpeedProfile>(
      cluster::SpeedProfile::log_normal(node_count, 100.0, cv, 13));

  const sched::Algorithm algorithm = sched::make_algorithm("EDF-DLT");
  sim::ClusterSimulator simulator(config, algorithm);
  for (auto _ : state) {
    for (const auto& tasks : traces) {
      benchmark::DoNotOptimize(simulator.run(tasks, horizon));
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * total_tasks));
}
BENCHMARK(BM_HetSweep)
    ->Args({0, 16})
    ->Args({40, 16})
    ->Args({40, 64})
    ->Args({40, 256})
    ->Args({80, 64})
    ->Unit(benchmark::kMillisecond);

// The row-diff acceptance scenario: a pure arrival burst against one
// admission session - Q accepted tasks queue up with no commits in between,
// so the session holds its deepest state. Args are (node_count, Q).
// Deadlines are scrambled so EDF insertion points wander across the queue
// (exercising the checkpointed delta-chain replay, not just the frontier
// fast path). Counters report the session's peak availability-state bytes
// and the dense one-row-per-task equivalent the refactor replaced -
// `reduction_x` is the measured O(Q*N) -> O(Q*k + sqrt(N)*N) drop.
void BM_AdmissionBurst(benchmark::State& state) {
  const auto node_count = static_cast<std::size_t>(state.range(0));
  const auto q = static_cast<std::size_t>(state.range(1));
  const cluster::ClusterParams params{.node_count = node_count, .cms = 1.0, .cps = 100.0};
  const sched::Algorithm algorithm = sched::make_algorithm("EDF-DLT");
  sched::AdmissionController controller(algorithm.policy, algorithm.rule.get());
  cluster::Cluster cluster(params);

  std::vector<workload::Task> tasks(q);
  for (std::size_t i = 0; i < q; ++i) {
    tasks[i].id = i;
    // Generous, scrambled deadlines: every arrival is accepted and lands at
    // a pseudo-random position of the EDF queue.
    const double jitter = static_cast<double>((i * 2654435761u) % q);
    tasks[i].spec = {0.0, 150.0 + static_cast<double>(i % 7) * 20.0,
                     2.0e6 + jitter * 5.0e3};
  }

  std::vector<const workload::Task*> waiting;
  for (auto _ : state) {
    controller.invalidate();
    waiting.clear();
    for (const workload::Task& task : tasks) {
      sched::AdmissionOutcome outcome =
          controller.test_incremental(task, waiting, params, cluster, 0.0);
      if (!outcome.accepted) continue;
      waiting.resize(outcome.reused_prefix);
      for (const sched::ScheduledTask& scheduled : outcome.schedule) {
        waiting.push_back(scheduled.task);
      }
    }
  }
  const auto peak = controller.peak_session_memory();
  state.counters["peak_bytes"] = static_cast<double>(peak.bytes);
  state.counters["dense_bytes"] = static_cast<double>(peak.dense_equivalent_bytes);
  state.counters["reduction_x"] =
      peak.bytes == 0 ? 0.0
                      : static_cast<double>(peak.dense_equivalent_bytes) /
                            static_cast<double>(peak.bytes);
  state.counters["queue_depth"] = static_cast<double>(waiting.size());
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * q));
}
BENCHMARK(BM_AdmissionBurst)
    ->Args({256, 128})
    ->Args({1024, 256})
    ->Args({4096, 512})
    ->Unit(benchmark::kMillisecond);

void BM_WorkloadGeneration(benchmark::State& state) {
  workload::WorkloadParams params;
  params.cluster = {.node_count = 16, .cms = 1.0, .cps = 100.0};
  params.system_load = 0.8;
  params.total_time = 200000.0;
  params.seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(workload::generate_workload(params));
  }
}
BENCHMARK(BM_WorkloadGeneration);

}  // namespace
