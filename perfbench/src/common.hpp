// Shared pieces of the end-to-end benchmark harness: command-line options,
// the result line, exact order statistics, and process-level measurements.
//
// Every workload prints human-readable notes first and, as the last line of
// standard output, one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {name: {value, unit}}}
// An untraced run (--trace 0) reports the end-to-end metrics, a traced run
// (--trace 1) the per-layer ones. Operations that fail with a typed error
// are counted in `failed`; a wrong result (an invariant violation, or runs
// of the same input that disagree) clears `correct` and makes the exit code
// non-zero.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Benchmark size. kSmoke shrinks every input so the self-test can run all
/// workloads in seconds; kFull is what the recorded metrics use.
enum class Size { kFull, kSmoke };

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Size size = Size::kFull;
  /// Self-test hook: make exactly one operation fail with a typed error,
  /// which must then show up in `failed` rather than crash the run.
  bool inject_failure = false;
};

/// Parses --workload/--seed/--seconds/--trace (plus --size and
/// --inject-failure); throws std::invalid_argument on anything else.
Options parse_options(int argc, char** argv);

/// The result line of one invocation.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit);

  /// Records a failed correctness check (printed to stderr at once).
  void fail_check(const std::string& why);

  void attempt(std::uint64_t n) { attempted_ += n; }
  void fail(std::uint64_t n) { failed_ += n; }

  bool correct() const { return correct_; }
  std::uint64_t attempted() const { return attempted_; }

  /// The JSON result object on one line.
  std::string json() const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// The end-to-end metrics every untraced run reports (see BENCHMARK.json
/// for what each means per workload).
struct EndToEnd {
  double decisions_per_s = 0.0;
  double reject_ratio = 0.0;
  double peak_rss_mb = 0.0;
  double setup_s = 0.0;
  double admit_p50_us = 0.0;
  double admit_p99_us = 0.0;
};
void add_end_to_end(Report& report, const EndToEnd& metrics);

/// The per-layer metrics every traced run reports. A layer a workload does
/// not run stays 0.
struct Layers {
  double exp_cell_ms_p50 = 0.0;
  double workload_generate_s = 0.0;
  double workload_ingest_s = 0.0;
  double workload_peak_resident_tasks = 0.0;
  double sched_plan_calls = 0.0;
  double sched_plan_s = 0.0;
  double sched_plan_infeasible_ratio = 0.0;
  double sched_resolver_positions_per_walk = 0.0;
  double sched_session_rebuilds = 0.0;
  double sched_delta_replays = 0.0;
  double sched_replan_suffix_mean = 0.0;
  double sched_session_peak_kb = 0.0;
  double sim_run_s = 0.0;
  double sim_self_s = 0.0;
  double sim_queue_depth_mean = 0.0;
  double cluster_index_commits = 0.0;
  double cluster_commit_depth_mean = 0.0;
  double cluster_commit_us = 0.0;
  double svc_shard_admit_us_p50 = 0.0;
  double svc_wire_us = 0.0;
  double svc_server_us_mean = 0.0;
  double svc_transport_us = 0.0;
  double svc_status_us_p50 = 0.0;
  double svc_errors = 0.0;
  double svc_timeouts = 0.0;
  double unaccounted_s = 0.0;
  double trace_overhead_ratio = 0.0;
};
void add_layers(Report& report, const Layers& layers);

/// a / b, or 0 when b is 0 (ratios over counts that may be empty).
inline double ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

/// Exact nearest-rank percentile: the ceil(p/100 * n)-th smallest sample
/// (1-based). Sorts `samples` in place. Returns nullopt when the sample is
/// empty or fewer than `min_beyond` samples rank above the answer - a
/// percentile with only a handful of samples past it is not a measurement.
std::optional<double> percentile(std::vector<double>& samples, double p,
                                 std::size_t min_beyond = 10);

/// Calls `once()` repeatedly for about `budget_s` seconds: at least
/// `min_runs` and at most `max_runs` times, starting another call only while
/// one as long as the last still fits the budget.
template <typename Once>
void repeat_for(double budget_s, std::size_t min_runs, std::size_t max_runs, Once once) {
  const Clock::time_point start = Clock::now();
  double last_s = 0.0;
  for (std::size_t runs = 0; runs < max_runs; ++runs) {
    const Clock::time_point now = Clock::now();
    if (runs >= min_runs && seconds_between(start, now) + last_s > budget_s) break;
    once();
    last_s = seconds_between(now, Clock::now());
  }
}

/// The fastest time of each of a fixed set of operations over repeated runs
/// of a deterministic unit of work, in storage sized once. On a shared host
/// the speed of a CPU changes within milliseconds, as neighbours come and
/// go; an operation's fastest repetition is the one that interference
/// spared, so these times, and their sum, stay put from run to run where a
/// whole repetition's time follows how busy the host happened to be.
class BestTimes {
 public:
  explicit BestTimes(std::size_t operations) : best_(operations, kMissing) {}

  void offer(std::size_t operation, double value) {
    double& best = best_[operation];
    if (best == kMissing || value < best) best = value;
  }

  /// Per operation, its fastest time; kMissing for one never offered.
  const std::vector<double>& values() const { return best_; }

  static constexpr double kMissing = -1.0;

 private:
  std::vector<double> best_;
};

/// Median of `values` (mean of the middle two for an even count); 0 when
/// empty.
double median(std::vector<double> values);

/// Percentile that must exist: records a failed check and returns 0 when
/// the sample is too small for it.
double required_percentile(Report& report, const std::string& what,
                           std::vector<double>& samples, double p);

/// Peak resident set of this program since it started, in MB.
double peak_rss_mb();

/// The CPUs the calling thread may run on, in increasing order (empty when
/// the affinity calls are unavailable).
std::vector<int> allowed_cpus();

/// Confines the calling thread - and every thread it starts afterwards - to
/// `cpu`; false when that fails.
bool pin_to_cpu(int cpu);

/// Pins to one CPU of the set the program was allowed at start: the
/// `turn`-th, modulo the set's size, so that successive repetitions run on
/// each CPU in turn. Neighbours on a shared host slow one CPU at a time, for
/// up to minutes; taking each operation's fastest repetition (BestTimes)
/// over repetitions spread across the CPUs keeps one busy neighbour from
/// slowing them all. Returns the CPU, or -1 when the affinity calls are
/// unavailable.
int pin_for_turn(std::size_t turn);

/// Per-process scratch directory under the build tree of the checkout
/// (created on first use); the harness removes it before exiting.
const std::string& scratch_dir();
void remove_scratch_dir();

/// Prints one human-readable note line ("# ...") to standard output.
void note(const std::string& line);

}  // namespace perfbench
