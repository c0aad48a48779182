// Million-task replay storm: the two headline numbers behind the bucketed
// availability index and the streaming trace pipeline (BENCH_replay.json in
// CI).
//
// Part 1 - commit path, N = RTDLS_REPLAY_NODES (1e5): one precomputed storm
// of index repositions (70% commits moving entries forward, 30% early
// releases moving them back) is replayed against the index and timed. The
// op list is generated up front from a side array, so the timed loop
// contains nothing but update() calls - each a batch of one - with a
// running max/sum of the depth each returns (the entries it shifted), and,
// after every 64th update, a view opened at a clock that creeps with the
// storm's window (half of it), so the watermark pops timeline entries into
// the floored partition; the 256th view of every 1,024 steps the clock
// back to a tenth, which puts floored nodes back in the timeline. A bucket
// holds at most 128 entries, so a single update's compaction shifts at
// most the 127 after its old position and its merge (or split) at most the
// 128 behind its new one; CI gates the max depth at 256 whatever N is.
// After the timed loop the index must be consistent with the storm's side
// array, or the program exits 1. ns/update, views included, is reported
// for information.
//
// Part 2 - streamed replay, RTDLS_REPLAY_TASKS (1e6) tasks: a trace CSV
// (about 30 MB at 1e6 rows) is *written row by row* to a temp file under
// $TMPDIR, or /tmp when it is unset (never materialized - generation must
// not pollute the process's lifetime-max RSS), then replayed through the
// full bounded-memory pipeline: TraceReader -> StreamingTaskSource ->
// ClusterSimulator::run_stream, and deleted. The trace is replayed twice:
// on a homogeneous cluster and on a heterogeneous one (lognormal:0.5
// speeds), whose admissions run the het prefix-scan planner off the
// index's row view. Reported per leg: tasks/sec, the source's peak
// resident task count, getrusage peak RSS - the number CI gates to pin the
// O(chunk) memory claim (a materialized million-task load would hold ~90 MB
// of tasks + CSV text; the streamed pipeline should stay far under that;
// the het leg's figure is the process's peak over both legs) - and the
// replay's deadline misses and Theorem-4 violations, which CI requires to
// be zero.
//
//   replay_storm [out.json]
//   RTDLS_REPLAY_NODES=100000   index size for the commit-path storm
//   RTDLS_REPLAY_UPDATES=20000  repositions in the storm
//   RTDLS_REPLAY_TASKS=1000000  streamed trace length
//   RTDLS_REPLAY_SIM_NODES=512  cluster size for the streamed replays
//   RTDLS_REPLAY_CHUNK=65536    TraceReader chunk size
//   TMPDIR=/tmp                 directory for the temporary trace
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "cluster/availability_index.hpp"
#include "cluster/speed_profile.hpp"
#include "sched/registry.hpp"
#include "sim/simulator.hpp"
#include "sim/task_source.hpp"
#include "util/build_info.hpp"
#include "workload/rng.hpp"
#include "workload/trace.hpp"

namespace {

using namespace rtdls;
using cluster::AvailabilityIndex;
using cluster::NodeId;
using cluster::Time;

std::size_t env_size(const char* name, std::size_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  const long parsed = std::atol(value);
  return parsed > 0 ? static_cast<std::size_t>(parsed) : fallback;
}

double peak_rss_mb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KB on Linux
}

// --- part 1: commit-path storm ----------------------------------------------

struct UpdateOp {
  NodeId node = 0;
  Time from = 0.0;
  Time to = 0.0;
};

/// Updates between two views of the storm, and the view of each cycle of
/// kViewCycle that steps the clock back.
constexpr std::size_t kUpdatesPerView = 64;
constexpr std::size_t kViewCycle = 1024;
constexpr std::size_t kBackView = 255;

/// The storm's repositions and its view clocks: clocks[j] is opened after
/// update (j + 1) * kUpdatesPerView - 1.
struct Storm {
  std::vector<UpdateOp> ops;
  std::vector<Time> clocks;
  std::vector<Time> free_times;  ///< every node's release time at the end
};

/// Precomputes the storm from a side array so the timed loops below are pure
/// update() calls and view opens. Forward moves land uniformly across the
/// live window (typical commit: free-now -> released-late); backward moves
/// model early releases. Times sit on a coarse grid so duplicate keys (the
/// id tie-break path) occur throughout.
Storm make_storm(std::size_t nodes, std::size_t updates) {
  Storm storm;
  storm.ops.reserve(updates);
  storm.free_times.assign(nodes, 0.0);
  workload::Xoshiro256StarStar rng(0xC0FFEE);
  Time window = 1000.0;
  for (std::size_t i = 0; i < updates; ++i) {
    UpdateOp op;
    op.node = static_cast<NodeId>(rng() % nodes);
    op.from = storm.free_times[op.node];
    if (rng.next_double() < 0.70) {
      op.to = op.from + 1.0 + std::floor(rng.next_double() * window);
      window += 2.0;  // the live window creeps forward like a real replay clock
    } else {
      op.to = std::floor(op.from * (0.2 + 0.7 * rng.next_double()));
    }
    storm.free_times[op.node] = op.to;
    storm.ops.push_back(op);
    if ((i + 1) % kUpdatesPerView == 0) {
      const bool back = storm.clocks.size() % kViewCycle == kBackView;
      storm.clocks.push_back(std::floor(window * (back ? 0.1 : 0.5)));
    }
  }
  return storm;
}

struct StormResult {
  double ns_per_update = 0.0;
  std::size_t max_depth = 0;
  double mean_depth = 0.0;
};

StormResult run_storm(AvailabilityIndex& index, const Storm& storm) {
  std::size_t max_depth = 0;
  std::size_t total_depth = 0;
  AvailabilityIndex::ViewCursor cursor;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < storm.ops.size(); ++i) {
    const UpdateOp& op = storm.ops[i];
    const std::size_t depth = index.update(op.node, op.from, op.to);
    max_depth = std::max(max_depth, depth);
    total_depth += depth;
    if ((i + 1) % kUpdatesPerView == 0) {
      index.open_view(storm.clocks[i / kUpdatesPerView], /*with_ids=*/false, cursor);
    }
  }
  const auto end = std::chrono::steady_clock::now();
  const double count = static_cast<double>(storm.ops.size());
  const double ns = std::chrono::duration<double, std::nano>(end - start).count();
  return {ns / count, max_depth, static_cast<double>(total_depth) / count};
}

// --- part 2: streamed million-task replay -----------------------------------

/// Writes the replay trace one row at a time: the generator never holds more
/// than one line, so trace creation leaves no footprint in ru_maxrss. The
/// arrival step keeps the cluster loaded right around capacity (accepts and
/// rejects both flow, committed work turns the index over constantly) while
/// the waiting queue stays shallow.
void write_trace(const std::string& path, std::size_t tasks) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "replay_storm: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  out << "id,arrival,sigma,deadline,user_nodes\n";
  char row[128];
  double arrival = 0.0;
  for (std::size_t i = 0; i < tasks; ++i) {
    arrival += 30.0 + 2.0 * static_cast<double>(i % 9);
    const double sigma = 150.0 + 25.0 * static_cast<double>(i % 5);
    const double deadline = 400.0 + 100.0 * static_cast<double>(i % 7);
    const int len = std::snprintf(row, sizeof(row), "%zu,%.1f,%.1f,%.1f,%zu\n", i, arrival,
                                  sigma, deadline, 8 + i % 8);
    out.write(row, len);
  }
  if (!out) {
    std::fprintf(stderr, "replay_storm: write failed for %s\n", path.c_str());
    std::exit(1);
  }
}

struct StreamedLeg {
  double wall_seconds = 0.0;
  double tasks_per_sec = 0.0;
  sim::SimMetrics metrics;
  std::size_t peak_resident_tasks = 0;
  double peak_rss_mb = 0.0;
};

/// Replays the trace at `path` with EDF-DLT on `sim_nodes` nodes under the
/// speed profile `profile` ("" for the homogeneous model).
StreamedLeg replay_leg(const char* name, const std::string& path, std::size_t tasks,
                       std::size_t sim_nodes, std::size_t chunk_tasks,
                       const std::string& profile) {
  sim::SimulatorConfig config;
  config.params.node_count = sim_nodes;
  config.params.cms = 1.0;
  config.params.cps = 100.0;
  if (!profile.empty()) {
    config.params.speed_profile = std::make_shared<const cluster::SpeedProfile>(
        cluster::parse_speed_profile(profile, sim_nodes, config.params.cps));
  }

  workload::TraceReader reader(path, {.chunk_tasks = chunk_tasks});
  sim::StreamingTaskSource source(reader);
  const sched::Algorithm algorithm = sched::make_algorithm("EDF-DLT");
  sim::ClusterSimulator simulator(config, algorithm);

  // Horizon past the last arrival (the row generator's maximum step).
  const double horizon = static_cast<double>(tasks) * 270.0 + 10000.0;
  StreamedLeg leg;
  const auto start = std::chrono::steady_clock::now();
  leg.metrics = simulator.run_stream(source, horizon);
  leg.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  leg.tasks_per_sec = static_cast<double>(tasks) / leg.wall_seconds;
  leg.peak_resident_tasks = source.peak_resident_tasks();
  leg.peak_rss_mb = peak_rss_mb();
  std::printf("%s replay: %zu tasks in %.2fs = %.0f tasks/s (%zu accepted, %zu rejected)\n",
              name, tasks, leg.wall_seconds, leg.tasks_per_sec, leg.metrics.accepted,
              leg.metrics.rejected);
  std::printf("correctness: %zu deadline misses, %zu theorem-4 violations\n",
              leg.metrics.deadline_misses, leg.metrics.theorem4_violations);
  std::printf("memory: peak %zu resident tasks across %zu-task chunks, peak RSS %.1f MB\n",
              leg.peak_resident_tasks, chunk_tasks, leg.peak_rss_mb);
  return leg;
}

/// One leg's JSON object under `key`.
void write_leg(std::ofstream& out, const char* key, const StreamedLeg& leg, std::size_t tasks,
               std::size_t sim_nodes, std::size_t chunk_tasks, const char* profile) {
  out << "  \"" << key << "\": {\n"
      << "    \"tasks\": " << tasks << ",\n"
      << "    \"sim_nodes\": " << sim_nodes << ",\n"
      << "    \"speed_profile\": \"" << profile << "\",\n"
      << "    \"chunk_tasks\": " << chunk_tasks << ",\n"
      << "    \"accepted\": " << leg.metrics.accepted << ",\n"
      << "    \"rejected\": " << leg.metrics.rejected << ",\n"
      << "    \"deadline_misses\": " << leg.metrics.deadline_misses << ",\n"
      << "    \"theorem4_violations\": " << leg.metrics.theorem4_violations << ",\n"
      << "    \"wall_seconds\": " << leg.wall_seconds << ",\n"
      << "    \"tasks_per_sec\": " << leg.tasks_per_sec << ",\n"
      << "    \"peak_resident_tasks\": " << leg.peak_resident_tasks << ",\n"
      << "    \"peak_rss_mb\": " << leg.peak_rss_mb << "\n"
      << "  }";
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_replay.json";
  const std::size_t index_nodes = env_size("RTDLS_REPLAY_NODES", 100000);
  const std::size_t updates = env_size("RTDLS_REPLAY_UPDATES", 20000);
  const std::size_t replay_tasks = env_size("RTDLS_REPLAY_TASKS", 1000000);
  const std::size_t sim_nodes = env_size("RTDLS_REPLAY_SIM_NODES", 512);
  const std::size_t chunk_tasks = env_size("RTDLS_REPLAY_CHUNK", 65536);

  // --- commit path ----------------------------------------------------------
  std::printf("replay_storm: commit-path storm, N=%zu nodes x %zu updates\n", index_nodes,
              updates);
  const Storm storm = make_storm(index_nodes, updates);

  AvailabilityIndex index;
  index.reset(index_nodes);
  const StormResult timed = run_storm(index, storm);

  // The index must mirror the storm's final state, its partition at the last
  // view's clock included (outside the timing).
  if (!index.consistent_with(storm.free_times)) {
    std::fprintf(stderr, "replay_storm: index diverged from the storm's final state\n");
    return 1;
  }
  std::printf("commit path: %.0f ns/update (%zu views), depth max %zu, mean %.2f entries "
              "shifted\n",
              timed.ns_per_update, storm.clocks.size(), timed.max_depth, timed.mean_depth);

  // --- streamed replay ------------------------------------------------------
  const char* tmpdir = std::getenv("TMPDIR");
  const std::string trace_dir = tmpdir != nullptr && *tmpdir != '\0' ? tmpdir : "/tmp";
  const std::string trace_path = trace_dir + "/rtdls_replay_" +
                                 std::to_string(static_cast<long>(::getpid())) + ".csv";
  std::printf("replay_storm: writing %zu-task trace to %s\n", replay_tasks,
              trace_path.c_str());
  write_trace(trace_path, replay_tasks);

  constexpr const char* kHetProfile = "lognormal:0.5";
  const StreamedLeg hom =
      replay_leg("homogeneous", trace_path, replay_tasks, sim_nodes, chunk_tasks, "");
  const StreamedLeg het = replay_leg("heterogeneous", trace_path, replay_tasks, sim_nodes,
                                     chunk_tasks, kHetProfile);
  std::remove(trace_path.c_str());

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "replay_storm: cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << "{\n"
      << "  \"bench\": \"replay_storm\",\n"
      << "  \"build\": \"" << util::build_description() << "\",\n"
      << "  \"commit_path\": {\n"
      << "    \"index_nodes\": " << index_nodes << ",\n"
      << "    \"updates\": " << updates << ",\n"
      << "    \"ns_per_update\": " << timed.ns_per_update << ",\n"
      << "    \"max_depth\": " << timed.max_depth << ",\n"
      << "    \"mean_depth\": " << timed.mean_depth << "\n"
      << "  },\n";
  write_leg(out, "streamed_replay", hom, replay_tasks, sim_nodes, chunk_tasks, "");
  out << ",\n";
  write_leg(out, "streamed_replay_het", het, replay_tasks, sim_nodes, chunk_tasks,
            kHetProfile);
  out << "\n}\n";
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
