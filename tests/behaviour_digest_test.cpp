// Behaviour digest: an exact fingerprint of what the simulator and the
// daemon's admission shard decide on a fixed corpus, checked against the
// files under tests/data/behaviour_digest/. Any change to a schedule, an
// admission outcome or an outcome metric fails here, so a refactor that
// claims "same behaviour" is held to bit identity, not to tolerance bands.
//
// Corpus. Inputs are pinned as text under tests/data (two trace CSVs and two
// `csv:` speed profiles holding lognormal:0.5 draws), so libm differences in
// workload or profile generation cannot move the digest:
//  * simulator: EDF/FIFO x every registered rule x homogeneous/het x release
//    estimate/actual, at N=16 and N=1024; the stateless (full re-plan)
//    admission path at N=16; shared-link and -IO20 (output_ratio 0.2) runs;
//  * admission shard: a fixed admit/commit/cancel sequence for EDF/FIFO x
//    DLT/MR2/OPR-MN-BF x homogeneous/het, incremental and stateless.
//
// A simulator line carries the outcome metrics (accepted, rejected, reject
// reasons, deadline misses, Theorem-4 violations, the RunningStats means
// and busy/idle time, doubles as IEEE bit patterns) and hashes the
// ScheduleLog: one hash per column, plus a prefix hash after every 8
// committed tasks. Planner counters and session-memory fields are left out:
// they measure the work done, not the outcome. A shard line hashes the
// encoded replies (prefix hashes every 8 operations), the final status
// counters and the snapshot bytes.
//
// On a mismatch the test names the first differing config and field and, for
// the log or reply stream, the first window of tasks that differs.
//
// Regenerating, only for an intended and explained behaviour change: every
// run writes what it computed to <build dir>/behaviour_digest/<part>.txt;
// copy those files over tests/data/behaviour_digest/.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cluster/speed_profile.hpp"
#include "sched/registry.hpp"
#include "sim/schedule_log.hpp"
#include "sim/simulator.hpp"
#include "svc/protocol.hpp"
#include "svc/shard.hpp"
#include "util/wire.hpp"
#include "workload/trace.hpp"

namespace rtdls {
namespace {

const std::string kDataDir = RTDLS_TEST_DATA_DIR;
const std::string kOutDir = RTDLS_DIGEST_OUT_DIR;

/// Tasks (log groups or shard operations) per prefix-hash window.
constexpr std::size_t kWindow = 8;

/// FNV-1a over explicit little-endian bytes (host-independent).
class Hash {
 public:
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void bytes(const std::vector<std::uint8_t>& data) {
    u64(data.size());
    for (std::uint8_t b : data) byte(b);
  }
  std::uint64_t value() const { return h_; }

 private:
  void byte(std::uint8_t b) {
    h_ ^= b;
    h_ *= 0x100000001b3ULL;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string hex32(std::uint64_t v) {
  char buf[9];
  std::snprintf(buf, sizeof buf, "%08llx",
                static_cast<unsigned long long>((v ^ (v >> 32)) & 0xffffffffULL));
  return buf;
}

std::string join(const std::vector<std::string>& items) {
  std::string out;
  for (const std::string& item : items) {
    if (!out.empty()) out += ',';
    out += item;
  }
  return out;
}

std::string bits(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return hex64(b);
}

/// One digest line: a config name and its ordered key=value fields, plus
/// (in memory only) the task ids each prefix-hash window covers.
struct Line {
  std::string config;
  std::vector<std::pair<std::string, std::string>> fields;
  std::vector<std::string> window_tasks;

  void add(std::string key, std::string value) {
    fields.emplace_back(std::move(key), std::move(value));
  }
  std::string text() const {
    std::string out = config;
    for (const auto& [key, value] : fields) out += " " + key + "=" + value;
    return out;
  }
};

/// Prefix hashes over a stream of tasks, one per completed window.
class Windows {
 public:
  Hash& hash() { return hash_; }
  void end_task(const std::string& task) {
    current_.push_back(task);
    if (current_.size() == kWindow) flush();
  }
  void finish(Line& line) {
    if (!current_.empty()) flush();
    line.add("windows", hashes_.empty() ? "-" : join(hashes_));
    line.window_tasks = std::move(members_);
  }

 private:
  void flush() {
    hashes_.push_back(hex32(hash_.value()));
    members_.push_back(join(current_));
    current_.clear();
  }
  Hash hash_;
  std::vector<std::string> current_;
  std::vector<std::string> hashes_;
  std::vector<std::string> members_;
};

struct Corpus {
  std::vector<workload::Task> tasks;
  cluster::ClusterParams hom;
  cluster::ClusterParams het;
};

const Corpus& corpus(std::size_t nodes) {
  static std::map<std::size_t, Corpus> cache;
  auto it = cache.find(nodes);
  if (it != cache.end()) return it->second;
  const std::string n = std::to_string(nodes);
  Corpus input;
  input.tasks = workload::load_trace_file(kDataDir + "/digest_trace_n" + n + ".csv");
  input.hom = {.node_count = nodes, .cms = 1.0, .cps = 100.0};
  input.het = input.hom;
  input.het.speed_profile = std::make_shared<const cluster::SpeedProfile>(
      cluster::parse_speed_profile("csv:" + kDataDir + "/digest_speeds_n" + n + ".csv",
                                   nodes, 100.0));
  return cache.emplace(nodes, std::move(input)).first->second;
}

const std::vector<std::string>& all_rules() {
  static const std::vector<std::string> rules = {
      "DLT", "DLT-Opt", "OPR-MN", "OPR-MN-Opt", "OPR-AN",
      "UserSplit", "MR2", "MR4", "OPR-MN-BF"};
  return rules;
}

Line simulate(const std::string& config_name, sim::SimulatorConfig config,
              const std::string& algorithm, const std::vector<workload::Task>& tasks) {
  sim::ScheduleLog log;
  config.schedule_log = &log;
  const sched::Algorithm alg = sched::make_algorithm(algorithm);
  sim::ClusterSimulator simulator(config, alg);
  const sim::SimMetrics m = simulator.run(tasks, tasks.back().arrival());

  Line line;
  line.config = config_name;
  line.add("accepted", std::to_string(m.accepted));
  line.add("rejected", std::to_string(m.rejected));
  std::vector<std::string> reasons;
  for (std::size_t count : m.reject_reasons) reasons.push_back(std::to_string(count));
  line.add("reasons", join(reasons));
  line.add("misses", std::to_string(m.deadline_misses));
  line.add("thm4", std::to_string(m.theorem4_violations));
  line.add("response", bits(m.response_time.mean()));
  line.add("wait", bits(m.wait_time.mean()));
  line.add("slack", bits(m.deadline_slack.mean()));
  line.add("nodes", bits(m.nodes_per_task.mean()));
  line.add("queue", bits(m.queue_length.mean()));
  line.add("margin", bits(m.estimate_margin.mean()));
  line.add("stagger", bits(m.stagger.mean()));
  line.add("iit", bits(m.iit_compression.mean()));
  line.add("busy", bits(m.busy_time));
  line.add("idle", bits(m.idle_gap_time));

  // ScheduleLog: per-column hashes name the differing field, prefix hashes
  // per committed-task window locate the first differing task.
  Hash task, node, usable, start, end, alpha, cps, finish;
  Windows windows;
  const auto& entries = log.entries();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const sim::ScheduleEntry& e = entries[i];
    task.u64(e.task);
    node.u64(e.node);
    usable.f64(e.usable_from);
    start.f64(e.start);
    end.f64(e.end);
    alpha.f64(e.alpha);
    cps.f64(e.cps);
    finish.f64(e.actual_finish);
    Hash& w = windows.hash();
    w.u64(e.task);
    w.u64(e.node);
    w.f64(e.usable_from);
    w.f64(e.start);
    w.f64(e.end);
    w.f64(e.alpha);
    w.f64(e.cps);
    w.f64(e.actual_finish);
    if (i + 1 == entries.size() || entries[i + 1].task != e.task) {
      windows.end_task(std::to_string(e.task));
    }
  }
  line.add("log.entries", std::to_string(entries.size()));
  line.add("log.task", hex32(task.value()));
  line.add("log.node", hex32(node.value()));
  line.add("log.usable_from", hex32(usable.value()));
  line.add("log.start", hex32(start.value()));
  line.add("log.end", hex32(end.value()));
  line.add("log.alpha", hex32(alpha.value()));
  line.add("log.cps", hex32(cps.value()));
  line.add("log.actual_finish", hex32(finish.value()));
  windows.finish(line);
  return line;
}

template <typename Reply>
std::vector<std::uint8_t> encoded(const Reply& reply) {
  util::WireWriter writer;
  reply.encode(writer);
  return writer.take();
}

/// A fixed admit/commit/cancel sequence over the N=16 trace: every task is
/// admitted in arrival order; after every 5th admit the middle accepted task
/// is committed, after every 7th the latest accepted one is cancelled.
/// Requests for tasks no longer waiting fail with a ShardError, whose code
/// is part of the stream too.
Line drive_shard(const std::string& config_name, const std::string& algorithm,
                 const cluster::ClusterParams& params, bool incremental) {
  svc::ShardConfig config{params};
  config.incremental = incremental;
  svc::AdmissionShard shard(algorithm, config);
  const std::vector<workload::Task>& tasks = corpus(16).tasks;

  Windows windows;
  Hash& stream = windows.hash();
  std::vector<cluster::TaskId> accepted;
  auto guarded = [&](auto request) {
    try {
      stream.bytes(encoded(request()));
    } catch (const svc::ShardError& error) {
      stream.u64(0xE000 + static_cast<std::uint64_t>(error.code()));
    }
  };
  for (std::size_t i = 0; i < tasks.size() && i < 120; ++i) {
    const svc::AdmitReply reply = shard.admit(svc::TaskRecord::from_task(tasks[i]));
    stream.bytes(encoded(reply));
    if (reply.accepted) accepted.push_back(tasks[i].id);
    windows.end_task(std::string("admit ") + std::to_string(tasks[i].id));
    if (accepted.empty()) continue;
    if (i % 5 == 4) {
      const cluster::TaskId id = accepted[accepted.size() / 2];
      guarded([&] { return shard.commit(id); });
      windows.end_task(std::string("commit ") + std::to_string(id));
    }
    if (i % 7 == 6) {
      const cluster::TaskId id = accepted.back();
      guarded([&] { return shard.cancel(id); });
      windows.end_task(std::string("cancel ") + std::to_string(id));
    }
  }

  Line line;
  line.config = config_name;
  svc::ShardStatus status;
  shard.fill_status(status);
  line.add("now", bits(status.now));
  line.add("waiting", std::to_string(status.waiting));
  line.add("admits", std::to_string(status.admits));
  line.add("accepted", std::to_string(status.accepted));
  line.add("rejected", std::to_string(status.rejected));
  line.add("committed", std::to_string(status.committed));
  line.add("cancelled", std::to_string(status.cancelled));
  util::WireWriter snapshot;
  shard.snapshot_to(snapshot);
  Hash snapshot_hash;
  snapshot_hash.bytes(snapshot.buffer());
  line.add("snapshot", hex64(snapshot_hash.value()));
  line.add("replies", hex64(stream.value()));
  windows.finish(line);
  return line;
}

/// Every rule x EDF/FIFO x hom/het at `nodes`: release estimate and actual
/// through the incremental session, or (`stateless`) the full re-plan path.
std::vector<Line> simulator_part(std::size_t nodes, bool stateless) {
  const Corpus& input = corpus(nodes);
  const std::string n = std::string("n") + std::to_string(nodes);
  std::vector<Line> lines;
  for (const char* speeds : {"hom", "het"}) {
    for (const std::string& rule : all_rules()) {
      for (const char* policy : {"EDF", "FIFO"}) {
        const std::string algorithm = std::string(policy) + "-" + rule;
        sim::SimulatorConfig config;
        config.params = std::string(speeds) == "het" ? input.het : input.hom;
        const std::string base = "sim/" + n + "/" + speeds + "/" + algorithm + "/";
        if (stateless) {
          if (rule == "OPR-MN-BF") continue;  // calendar rules are always stateless
          config.incremental_admission = false;
          lines.push_back(simulate(base + "stateless", config, algorithm, input.tasks));
          continue;
        }
        lines.push_back(simulate(base + "estimate", config, algorithm, input.tasks));
        config.release_policy = sim::ReleasePolicy::kActual;
        lines.push_back(simulate(base + "actual", config, algorithm, input.tasks));
      }
    }
  }
  return lines;
}

std::vector<Line> extras_part() {
  const Corpus& input = corpus(16);
  std::vector<Line> lines;
  for (const char* speeds : {"hom", "het"}) {
    const cluster::ClusterParams& params =
        std::string(speeds) == "het" ? input.het : input.hom;
    sim::SimulatorConfig shared;
    shared.params = params;
    shared.shared_link = true;
    lines.push_back(simulate(std::string("sim/n16/") + speeds + "/EDF-DLT/shared-link",
                             shared, "EDF-DLT", input.tasks));
    sim::SimulatorConfig output;
    output.params = params;
    output.output_ratio = 0.2;
    lines.push_back(simulate(std::string("sim/n16/") + speeds + "/EDF-DLT-IO20/output0.2",
                             output, "EDF-DLT-IO20", input.tasks));
  }
  return lines;
}

std::vector<Line> shard_part() {
  const Corpus& input = corpus(16);
  std::vector<Line> lines;
  for (const char* speeds : {"hom", "het"}) {
    for (const char* rule : {"DLT", "MR2", "OPR-MN-BF"}) {
      for (const char* policy : {"EDF", "FIFO"}) {
        const std::string algorithm = std::string(policy) + "-" + rule;
        const cluster::ClusterParams& params =
            std::string(speeds) == "het" ? input.het : input.hom;
        for (bool incremental : {true, false}) {
          lines.push_back(drive_shard(std::string("shard/") + speeds + "/" + algorithm + "/" +
                                          (incremental ? "incremental" : "stateless"),
                                      algorithm, params, incremental));
        }
      }
    }
  }
  return lines;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

std::map<std::string, std::string> parse_fields(const std::string& text, std::string& config) {
  std::istringstream in(text);
  in >> config;
  std::map<std::string, std::string> fields;
  std::string token;
  while (in >> token) {
    const std::size_t eq = token.find('=');
    fields[token.substr(0, eq)] = eq == std::string::npos ? "" : token.substr(eq + 1);
  }
  return fields;
}

std::vector<std::string> split(const std::string& list) {
  std::vector<std::string> out;
  std::stringstream in(list);
  std::string item;
  while (std::getline(in, item, ',')) out.push_back(item);
  return out;
}

/// Describes the first difference between the expected line and `actual`:
/// the first differing field and, when the task stream differs, the first
/// differing window of tasks.
std::string first_difference(const std::string& expected, const Line& actual) {
  std::string expected_config;
  const auto fields = parse_fields(expected, expected_config);
  if (expected_config != actual.config) {
    return "config order: expected " + expected_config + ", computed " + actual.config;
  }
  auto want_of = [&fields](const std::string& key) {
    const auto it = fields.find(key);
    return it == fields.end() ? std::string("<missing>") : it->second;
  };
  for (const auto& [key, value] : actual.fields) {
    if (want_of(key) == value) continue;
    std::string where = actual.config + ": field " + key + " expected " + want_of(key) +
                        ", computed " + value;
    const std::vector<std::string> want_windows = split(want_of("windows"));
    std::vector<std::string> got_windows;
    for (const auto& [k, v] : actual.fields) {
      if (k == "windows") got_windows = split(v);
    }
    std::size_t i = 0;
    while (i < want_windows.size() && i < got_windows.size() &&
           want_windows[i] == got_windows[i]) {
      ++i;
    }
    if (i < want_windows.size() || i < got_windows.size()) {
      where += "; first differing window #";
      where += std::to_string(i);
      if (i < actual.window_tasks.size()) where += ": " + actual.window_tasks[i];
    }
    return where;
  }
  return actual.config + ": fields differ in order or count";
}

void check_part(const std::string& part, const std::vector<Line>& lines) {
  std::filesystem::create_directories(kOutDir);
  {
    std::ofstream out(kOutDir + "/" + part + ".txt");
    for (const Line& line : lines) out << line.text() << "\n";
  }
  const std::vector<std::string> expected =
      read_lines(kDataDir + "/behaviour_digest/" + part + ".txt");
  ASSERT_FALSE(expected.empty()) << "no digest file for part " << part;
  ASSERT_EQ(expected.size(), lines.size()) << part << ": digest line count";
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (expected[i] != lines[i].text()) {
      FAIL() << "behaviour digest mismatch in " << part << " (line " << i + 1
             << "): " << first_difference(expected[i], lines[i]);
    }
  }
}

TEST(BehaviourDigest, SimulatorN16) { check_part("sim_n16", simulator_part(16, false)); }

TEST(BehaviourDigest, SimulatorN16Stateless) {
  check_part("sim_n16_stateless", simulator_part(16, true));
}

TEST(BehaviourDigest, SimulatorN1024) {
  check_part("sim_n1024", simulator_part(1024, false));
}

TEST(BehaviourDigest, SimulatorSharedLinkAndOutput) {
  check_part("sim_extras", extras_part());
}

TEST(BehaviourDigest, AdmissionShard) { check_part("shard", shard_part()); }

}  // namespace
}  // namespace rtdls
