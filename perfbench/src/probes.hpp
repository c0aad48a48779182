// Layer probes the benchmark attaches from the outside, through the
// library's public extension points, so a traced run needs no change to the
// program:
//  * TimedRule decorates the PartitionRule of a sched::Algorithm and times
//    every plan() call (the sched/dlt planner layer);
//  * StampedSource decorates a sim::TaskSource: it stamps every pop() - one
//    per admission decision - so the gaps are per-decision latencies, and in
//    traced runs it also times the wrapped source's peek()/pop(), which is
//    where trace chunks are parsed (the workload ingest layer).
// Both forward every other call unchanged, so schedules and admission
// outcomes are identical with and without them.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common.hpp"
#include "sched/registry.hpp"
#include "sim/task_source.hpp"

namespace perfbench {

/// Planner work seen by a TimedRule.
struct PlanProbe {
  std::size_t calls = 0;
  std::size_t infeasible = 0;
  double seconds = 0.0;
};

class TimedRule final : public rtdls::sched::PartitionRule {
 public:
  TimedRule(std::unique_ptr<rtdls::sched::PartitionRule> inner, PlanProbe& probe)
      : inner_(std::move(inner)), probe_(&probe) {}

  rtdls::sched::PlanResult plan(const rtdls::sched::PlanRequest& request) const override;
  std::string_view name() const override { return inner_->name(); }
  bool uses_calendar() const override { return inner_->uses_calendar(); }
  bool hard_rejects_at_front() const override { return inner_->hard_rejects_at_front(); }
  rtdls::sched::PlannerCounters planner_counters() const override {
    return inner_->planner_counters();
  }
  void reset_planner_counters() const override { inner_->reset_planner_counters(); }

 private:
  std::unique_ptr<rtdls::sched::PartitionRule> inner_;
  PlanProbe* probe_;
};

/// make_algorithm(name) with its rule wrapped in a TimedRule feeding `probe`.
rtdls::sched::Algorithm make_timed_algorithm(const std::string& name, PlanProbe& probe);

class StampedSource final : public rtdls::sim::TaskSource {
 public:
  /// `gaps_us` receives one per-decision latency per pop(); reserve it up
  /// front so the run does not allocate. `time_ingest` also times the
  /// wrapped source's own peek()/pop().
  StampedSource(rtdls::sim::TaskSource& inner, std::vector<double>& gaps_us,
                bool time_ingest)
      : inner_(&inner), gaps_us_(&gaps_us), time_ingest_(time_ingest) {}

  const rtdls::workload::Task* peek() override;
  void pop() override;
  void on_task_admitted(const rtdls::workload::Task* task) override {
    inner_->on_task_admitted(task);
  }
  void on_task_retired(const rtdls::workload::Task* task) override {
    inner_->on_task_retired(task);
  }

  double ingest_seconds() const { return ingest_seconds_; }

  /// Appends the gap from the last pop() to now: the last decision and the
  /// drain after it, so that the gaps add up to the whole run.
  void stamp_end();

 private:
  rtdls::sim::TaskSource* inner_;
  std::vector<double>* gaps_us_;
  bool time_ingest_;
  bool started_ = false;
  Clock::time_point last_{};
  double ingest_seconds_ = 0.0;
};

/// Process-registry totals the traced runs report: admission-session
/// internals and availability-index commits. Read one before and one after
/// the traced work and take since().
struct RegistryTotals {
  double session_rebuilds = 0.0;
  double delta_replays = 0.0;
  double replan_suffix_count = 0.0;
  double replan_suffix_sum = 0.0;
  double index_commits = 0.0;
  double index_depth_sum = 0.0;

  static RegistryTotals read();
  RegistryTotals since(const RegistryTotals& before) const;
};

}  // namespace perfbench
