// Golden regression tests: one fixed workload, every paper algorithm, exact
// admission counts. These are deliberately tighter than the property tests -
// they exist to catch unintended behavioural drift in the scheduler (a
// changed tie-break, an off-by-one in the n search) that the invariant
// tests would tolerate. The counts are exact: every bit-identity claim
// elsewhere rules out the drift a tolerance band would hide. The workload is
// generated (not pinned as text like the behaviour-digest corpus), so a
// libm whose exp/log round differently would move these counts too.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "sim/simulator.hpp"
#include "workload/generator.hpp"

namespace rtdls {
namespace {

const std::vector<workload::Task>& golden_tasks() {
  static const std::vector<workload::Task> tasks = [] {
    workload::WorkloadParams params;
    params.cluster = {.node_count = 16, .cms = 1.0, .cps = 100.0};
    params.system_load = 0.8;
    params.avg_sigma = 200.0;
    params.dc_ratio = 2.0;
    params.total_time = 1'000'000.0;
    params.seed = 20070227;
    params.stream = 0;
    return workload::generate_workload(params);
  }();
  return tasks;
}

sim::SimMetrics golden_run(const std::string& algorithm) {
  sim::SimulatorConfig config;
  config.params = {.node_count = 16, .cms = 1.0, .cps = 100.0};
  return sim::simulate(config, algorithm, golden_tasks(), 1'000'000.0);
}

double golden_reject(const std::string& algorithm) {
  return golden_run(algorithm).reject_ratio();
}

TEST(Golden, WorkloadShape) {
  // lambda = load / E(avg,16) predicts ~589 arrivals at this horizon.
  EXPECT_EQ(golden_tasks().size(), 591u);
}

TEST(Golden, RejectRatiosPinned) {
  // (accepted, rejected) measured at commit time; the ordering constraints
  // below are the semantic content, the exact counts catch drift.
  const std::map<std::string, std::pair<std::size_t, std::size_t>> expected = {
      {"EDF-OPR-MN", {381, 210}},    {"EDF-DLT", {391, 200}},
      {"FIFO-OPR-MN", {380, 211}},   {"FIFO-DLT", {391, 200}},
      {"EDF-UserSplit", {365, 226}}, {"EDF-OPR-AN", {407, 184}},
  };
  std::map<std::string, double> measured;
  for (const auto& [name, counts] : expected) {
    const sim::SimMetrics metrics = golden_run(name);
    measured[name] = metrics.reject_ratio();
    EXPECT_EQ(metrics.accepted, counts.first) << name;
    EXPECT_EQ(metrics.rejected, counts.second) << name;
  }
  // Cross-algorithm ordering at this load (the paper's claims).
  EXPECT_LT(measured["EDF-DLT"], measured["EDF-OPR-MN"]);
  EXPECT_LT(measured["FIFO-DLT"], measured["FIFO-OPR-MN"]);
  EXPECT_LT(measured["EDF-DLT"], measured["EDF-UserSplit"]);
}

TEST(Golden, DeterministicAcrossProcessRuns) {
  // Bitwise-identical metrics for repeated evaluations within a process;
  // combined with the fixed seed this pins the full decision sequence.
  const double first = golden_reject("EDF-DLT");
  const double second = golden_reject("EDF-DLT");
  EXPECT_DOUBLE_EQ(first, second);
}

TEST(Golden, BackfillTracksOprMnClosely) {
  const sim::SimMetrics mn = golden_run("EDF-OPR-MN");
  const sim::SimMetrics bf = golden_run("EDF-OPR-MN-BF");
  EXPECT_EQ(bf.accepted, 381u);
  EXPECT_EQ(bf.rejected, 210u);
  // The measured finding: conservative backfilling recovers almost none of
  // the IIT waste on this workload (gaps are rarely co-usable).
  EXPECT_NEAR(bf.reject_ratio(), mn.reject_ratio(), 0.02);
}

}  // namespace
}  // namespace rtdls
