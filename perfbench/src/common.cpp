#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

Options parse_options(int argc, char** argv) {
  Options options;
  auto value = [&](int& i) -> std::string {
    if (i + 1 >= argc) {
      throw std::invalid_argument(std::string(argv[i]) + " needs a value");
    }
    return argv[++i];
  };
  auto number = [](const std::string& flag, const std::string& text) {
    std::size_t used = 0;
    const double parsed = std::stod(text, &used);
    if (used != text.size() || !std::isfinite(parsed) || parsed < 0.0) {
      throw std::invalid_argument(flag + ": expected a non-negative number, got '" +
                                  text + "'");
    }
    return parsed;
  };
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--workload") {
      options.workload = value(i);
      have_workload = true;
    } else if (flag == "--seed") {
      const std::string text = value(i);
      std::size_t used = 0;
      options.seed = std::stoull(text, &used);
      if (used != text.size()) {
        throw std::invalid_argument("--seed: not an integer: " + text);
      }
    } else if (flag == "--seconds") {
      options.seconds = number(flag, value(i));
    } else if (flag == "--trace") {
      const std::string text = value(i);
      if (text != "0" && text != "1") {
        throw std::invalid_argument("--trace: expected 0 or 1");
      }
      options.trace = text == "1";
    } else if (flag == "--size") {
      const std::string text = value(i);
      if (text == "full") {
        options.size = Size::kFull;
      } else if (text == "smoke") {
        options.size = Size::kSmoke;
      } else {
        throw std::invalid_argument("--size: expected full or smoke");
      }
    } else if (flag == "--inject-failure") {
      options.inject_failure = true;
    } else {
      throw std::invalid_argument("unknown argument '" + flag + "'");
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  return options;
}

void Report::add(const std::string& name, double value, const std::string& unit) {
  if (!std::isfinite(value)) {
    fail_check("metric " + name + " is not finite");
    value = 0.0;
  }
  metrics_.push_back(Metric{name, value, unit});
}

void Report::fail_check(const std::string& why) {
  correct_ = false;
  std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
}

std::string Report::json() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct_ ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  char number[64];
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    std::snprintf(number, sizeof(number), "%.17g", metrics_[i].value);
    out << (i == 0 ? "" : ", ") << '"' << metrics_[i].name << "\": {\"value\": " << number
        << ", \"unit\": \"" << metrics_[i].unit << "\"}";
  }
  out << "}}";
  return out.str();
}

void add_end_to_end(Report& report, const EndToEnd& m) {
  report.add("decisions_per_s", m.decisions_per_s, "1/s");
  report.add("reject_ratio", m.reject_ratio, "ratio");
  report.add("peak_rss_mb", m.peak_rss_mb, "MB");
  report.add("setup_s", m.setup_s, "s");
  report.add("admit_p50_us", m.admit_p50_us, "us");
  report.add("admit_p99_us", m.admit_p99_us, "us");
}

void add_layers(Report& report, const Layers& l) {
  report.add("exp.cell_ms_p50", l.exp_cell_ms_p50, "ms");
  report.add("workload.generate_s", l.workload_generate_s, "s");
  report.add("workload.ingest_s", l.workload_ingest_s, "s");
  report.add("workload.peak_resident_tasks", l.workload_peak_resident_tasks, "count");
  report.add("sched.plan_calls", l.sched_plan_calls, "count");
  report.add("sched.plan_s", l.sched_plan_s, "s");
  report.add("sched.plan_infeasible_ratio", l.sched_plan_infeasible_ratio, "ratio");
  report.add("sched.resolver_positions_per_walk", l.sched_resolver_positions_per_walk,
             "count");
  report.add("sched.session_rebuilds", l.sched_session_rebuilds, "count");
  report.add("sched.delta_replays", l.sched_delta_replays, "count");
  report.add("sched.replan_suffix_mean", l.sched_replan_suffix_mean, "count");
  report.add("sched.session_peak_kb", l.sched_session_peak_kb, "kB");
  report.add("sim.run_s", l.sim_run_s, "s");
  report.add("sim.self_s", l.sim_self_s, "s");
  report.add("sim.queue_depth_mean", l.sim_queue_depth_mean, "count");
  report.add("cluster.index_commits", l.cluster_index_commits, "count");
  report.add("cluster.commit_depth_mean", l.cluster_commit_depth_mean, "count");
  report.add("cluster.commit_us", l.cluster_commit_us, "us");
  report.add("svc.shard_admit_us_p50", l.svc_shard_admit_us_p50, "us");
  report.add("svc.wire_us", l.svc_wire_us, "us");
  report.add("svc.server_us_mean", l.svc_server_us_mean, "us");
  report.add("svc.transport_us", l.svc_transport_us, "us");
  report.add("svc.status_us_p50", l.svc_status_us_p50, "us");
  report.add("svc.errors", l.svc_errors, "count");
  report.add("svc.timeouts", l.svc_timeouts, "count");
  report.add("unaccounted_s", l.unaccounted_s, "s");
  report.add("trace_overhead_ratio", l.trace_overhead_ratio, "ratio");
}

std::optional<double> percentile(std::vector<double>& samples, double p,
                                 std::size_t min_beyond) {
  const std::size_t n = samples.size();
  if (n == 0 || !(p > 0.0) || p > 100.0) return std::nullopt;
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  if (n - rank < min_beyond) return std::nullopt;
  std::sort(samples.begin(), samples.end());
  return samples[rank - 1];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

double required_percentile(Report& report, const std::string& what,
                           std::vector<double>& samples, double p) {
  const std::optional<double> value = percentile(samples, p);
  if (!value) {
    report.fail_check(what + ": " + std::to_string(samples.size()) +
                      " samples are too few for p" + std::to_string(p));
    return 0.0;
  }
  return *value;
}

double peak_rss_mb() {
  // VmHWM is the high-water mark of this program image alone. ru_maxrss
  // would also count the launcher's memory at fork time, which survives exec.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KB on Linux
}

std::vector<int> allowed_cpus() {
  std::vector<int> cpus;
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  return cpus;
}

bool pin_to_cpu(int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof(one), &one) == 0;
}

int pin_for_turn(std::size_t turn) {
  static const std::vector<int> cpus = allowed_cpus();  // before any pinning
  if (cpus.empty()) return -1;
  const int cpu = cpus[turn % cpus.size()];
  return pin_to_cpu(cpu) ? cpu : -1;
}

namespace {
std::string& scratch_path() {
  static std::string path;
  return path;
}
}  // namespace

const std::string& scratch_dir() {
  std::string& path = scratch_path();
  if (path.empty()) {
    path = ".bench_build/perfbench-tmp-" + std::to_string(::getpid());
    std::filesystem::create_directories(path);
  }
  return path;
}

void remove_scratch_dir() {
  std::string& path = scratch_path();
  if (path.empty()) return;
  std::error_code ignored;
  std::filesystem::remove_all(path, ignored);
  path.clear();
}

void note(const std::string& line) { std::cout << "# " << line << '\n'; }

}  // namespace perfbench
