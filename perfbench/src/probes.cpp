#include "probes.hpp"

#include "obs/metrics.hpp"

namespace perfbench {

rtdls::sched::PlanResult TimedRule::plan(const rtdls::sched::PlanRequest& request) const {
  const Clock::time_point start = Clock::now();
  rtdls::sched::PlanResult result = inner_->plan(request);
  probe_->seconds += seconds_between(start, Clock::now());
  ++probe_->calls;
  if (!result.feasible()) ++probe_->infeasible;
  return result;
}

rtdls::sched::Algorithm make_timed_algorithm(const std::string& name, PlanProbe& probe) {
  rtdls::sched::Algorithm algorithm = rtdls::sched::make_algorithm(name);
  algorithm.rule = std::make_unique<TimedRule>(std::move(algorithm.rule), probe);
  return algorithm;
}

const rtdls::workload::Task* StampedSource::peek() {
  if (!started_) {
    started_ = true;
    last_ = Clock::now();
  }
  if (!time_ingest_) return inner_->peek();
  const Clock::time_point start = Clock::now();
  const rtdls::workload::Task* task = inner_->peek();
  ingest_seconds_ += seconds_between(start, Clock::now());
  return task;
}

void StampedSource::pop() {
  const Clock::time_point start = Clock::now();
  gaps_us_->push_back(std::chrono::duration<double, std::micro>(start - last_).count());
  last_ = start;
  inner_->pop();
  if (time_ingest_) ingest_seconds_ += seconds_between(start, Clock::now());
}

void StampedSource::stamp_end() {
  const Clock::time_point now = Clock::now();
  gaps_us_->push_back(std::chrono::duration<double, std::micro>(now - last_).count());
  last_ = now;
}

RegistryTotals RegistryTotals::read() {
  const rtdls::obs::Registry& registry = rtdls::obs::Registry::global();
  RegistryTotals totals;
  totals.session_rebuilds = static_cast<double>(
      registry.counter_value("rtdls_admission_session_rebuilds_total"));
  totals.delta_replays =
      static_cast<double>(registry.counter_value("rtdls_admission_delta_replays_total"));
  const rtdls::obs::HistogramSample suffix =
      registry.histogram_sample("rtdls_admission_replan_suffix");
  totals.replan_suffix_count = static_cast<double>(suffix.count);
  totals.replan_suffix_sum = suffix.sum;
  const rtdls::obs::HistogramSample depth =
      registry.histogram_sample("rtdls_index_commit_depth");
  totals.index_commits = static_cast<double>(depth.count);
  totals.index_depth_sum = depth.sum;
  return totals;
}

RegistryTotals RegistryTotals::since(const RegistryTotals& before) const {
  RegistryTotals delta;
  delta.session_rebuilds = session_rebuilds - before.session_rebuilds;
  delta.delta_replays = delta_replays - before.delta_replays;
  delta.replan_suffix_count = replan_suffix_count - before.replan_suffix_count;
  delta.replan_suffix_sum = replan_suffix_sum - before.replan_suffix_sum;
  delta.index_commits = index_commits - before.index_commits;
  delta.index_depth_sum = index_depth_sum - before.index_depth_sum;
  return delta;
}

}  // namespace perfbench
