// daemon_admit: the online admission service. An in-process svc::Daemon
// (EDF-DLT, N=16, one shard, one worker) listens on a Unix socket and one
// svc::Client drives it closed-loop with paper-calibrated tasks
// (workload::generate_workload -> svc::TaskRecord::from_task), reading the
// daemon's status after every kStatusEvery admits. The request path
// dominates - framing, socket, worker dispatch, shard lock, obs histograms;
// the planner does little (N=16, shallow queue). The status reads make a
// change that speeds up admits at the expense of reads show.
//
// Before each round's daemon starts, the whole process is confined to one
// CPU, the next of the allowed set each round: the client/worker ping-pong
// otherwise turns into cross-CPU wake-ups whose cost depends on where the
// scheduler puts the threads.
//
// A round builds and starts a fresh daemon and connects (the set-up), sends
// the same request sequence, and stops the daemon; rounds repeat until the
// time budget is spent. Every round must make the same decisions. An
// operation is one request; error and timeout replies are failures, a
// reject is a decision. Admit latency is the client-timed round trip; the
// timing metrics come from each admit's and each stretch of admits' fastest
// time over the rounds.
//
// Traced: reference rounds first, then rounds that also keep the replies,
// followed by the same request sequence through an in-process
// AdmissionShard (whose decisions must match the daemon's) and through the
// wire codec alone.
#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "probes.hpp"
#include "svc/client.hpp"
#include "svc/protocol.hpp"
#include "svc/server.hpp"
#include "svc/shard.hpp"
#include "workload/generator.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace rtdls;

constexpr std::size_t kNodes = 16;
constexpr double kSystemLoad = 0.9;
constexpr double kDcRatio = 2.0;
constexpr const char* kAlgorithm = "EDF-DLT";
constexpr std::size_t kStatusEvery = 64;
constexpr std::size_t kMinRounds = 3;
constexpr std::size_t kMaxRounds = 200;
constexpr std::size_t kTracedRounds = 3;
constexpr int kClientTimeoutMs = 10000;

std::size_t round_requests(Size size) { return size == Size::kFull ? 40000 : 2000; }

cluster::ClusterParams cluster_params() {
  cluster::ClusterParams params;
  params.node_count = kNodes;
  params.cms = 1.0;
  params.cps = 100.0;
  return params;
}

/// The first `count` tasks of a paper-calibrated workload.
std::vector<workload::Task> make_tasks(std::uint64_t seed, std::size_t count) {
  workload::WorkloadParams params;
  params.cluster = cluster_params();
  params.system_load = kSystemLoad;
  params.dc_ratio = kDcRatio;
  params.seed = seed;
  params.total_time = 1.5 * static_cast<double>(count) * params.mean_interarrival();
  std::vector<workload::Task> tasks = workload::generate_workload(params);
  if (tasks.size() < count) {
    throw std::runtime_error("daemon_admit: generated workload too short");
  }
  tasks.resize(count);
  return tasks;
}

/// Order-sensitive digest of a round's decisions.
struct DecisionDigest {
  std::uint64_t value = 1469598103934665603ULL;

  void add(const svc::AdmitReply& reply) {
    std::uint64_t completion = 0;
    std::memcpy(&completion, &reply.est_completion, sizeof(completion));
    const std::uint64_t words[] = {static_cast<std::uint64_t>(reply.accepted),
                                   static_cast<std::uint64_t>(reply.reason), reply.nodes,
                                   completion, reply.waiting};
    for (std::uint64_t word : words) {
      value = (value ^ word) * 1099511628211ULL;
    }
  }
};

/// Each admit's fastest round trip and each stretch's fastest time over the
/// rounds (see BestTimes). A stretch is kStatusEvery admits and the status
/// read after them.
struct Fastest {
  explicit Fastest(std::size_t admits)
      : admit_us(admits), stretch_s((admits + kStatusEvery - 1) / kStatusEvery) {}

  BestTimes admit_us;
  BestTimes stretch_s;
};

/// Sample buffers every round reuses, so the benchmark's own footprint
/// stays fixed however many rounds run.
struct Buffers {
  std::vector<double> admit_us;
  std::vector<double> status_us;
  std::vector<svc::AdmitReply> replies;  ///< kept by traced rounds only
};

struct Round {
  double setup_s = 0.0;
  double seconds = 0.0;
  std::uint64_t requests = 0;
  std::uint64_t failed = 0;  ///< error or timeout replies seen by the client
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  DecisionDigest digest;
  double status_p50_us = 0.0;  ///< exact, client-timed
  double round_trip_us = 0.0;  ///< sum over every request
  double round_trips = 0.0;
  double session_peak_bytes = 0.0;
  sim::ServiceCounters counters;
  double server_us = 0.0;  ///< sum of the daemon's request-latency histogram
  double server_requests = 0.0;

  double rate = 0.0;  ///< decisions per second of the round
};

/// One round; `fastest`, when given, is offered the round's times.
Round run_round(const Options& options, const std::vector<workload::Task>& tasks,
                Buffers& buffers, bool keep_replies, Fastest* fastest, Report& report) {
  Round round;
  buffers.admit_us.clear();
  buffers.status_us.clear();
  buffers.replies.clear();
  buffers.admit_us.reserve(tasks.size() + 1);
  buffers.status_us.reserve(tasks.size() / kStatusEvery);
  if (keep_replies) buffers.replies.reserve(tasks.size());

  svc::DaemonConfig config;
  config.socket_path = scratch_dir() + "/daemon.sock";
  config.algorithm = kAlgorithm;
  config.params = cluster_params();
  config.shards = 1;
  config.workers = 1;
  const Clock::time_point setup_start = Clock::now();
  svc::Daemon daemon(config);
  daemon.start();
  {
    svc::Client client(config.socket_path, kClientTimeoutMs);
    const Clock::time_point start = Clock::now();
    round.setup_s = seconds_between(setup_start, start);
    Clock::time_point stretch_start = start;
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      svc::AdmitRequest request;
      request.task = svc::TaskRecord::from_task(tasks[i]);
      ++round.requests;
      try {
        const Clock::time_point sent = Clock::now();
        const svc::AdmitReply reply = client.admit(request);
        const double us =
            std::chrono::duration<double, std::micro>(Clock::now() - sent).count();
        buffers.admit_us.push_back(us);
        if (fastest != nullptr) fastest->admit_us.offer(i, us);
        ++(reply.accepted ? round.accepted : round.rejected);
        round.digest.add(reply);
        if (keep_replies) buffers.replies.push_back(reply);
      } catch (const svc::ServiceError& error) {
        ++round.failed;
        note(std::string("admit failed: ") + error.what());
      }
      if (options.inject_failure && i == tasks.size() / 2) {
        // An admit to a shard the daemon does not have.
        request.shard = 7;
        ++round.requests;
        try {
          client.admit(request);
        } catch (const svc::ServiceError& error) {
          ++round.failed;
          note(std::string("injected admit failed: ") + error.what());
        }
      }
      if ((i + 1) % kStatusEvery == 0) {
        ++round.requests;
        try {
          const Clock::time_point sent = Clock::now();
          const svc::StatusReply status = client.status();
          buffers.status_us.push_back(
              std::chrono::duration<double, std::micro>(Clock::now() - sent).count());
          for (const svc::ShardStatus& shard : status.shards) {
            const double peak = static_cast<double>(shard.peak_session_bytes);
            round.session_peak_bytes = std::max(round.session_peak_bytes, peak);
          }
        } catch (const svc::ServiceError& error) {
          ++round.failed;
          note(std::string("status failed: ") + error.what());
        }
      }
      if (fastest != nullptr && ((i + 1) % kStatusEvery == 0 || i + 1 == tasks.size())) {
        const Clock::time_point now = Clock::now();
        fastest->stretch_s.offer(i / kStatusEvery, seconds_between(stretch_start, now));
        stretch_start = now;
      }
    }
    round.seconds = seconds_between(start, Clock::now());
    round.rate =
        ratio(static_cast<double>(round.accepted + round.rejected), round.seconds);
  }
  round.counters = daemon.counters();
  const obs::HistogramSample server =
      daemon.metrics_registry().histogram_sample("rtdls_daemon_request_latency_us");
  round.server_us = server.sum;
  round.server_requests = static_cast<double>(server.count);
  daemon.stop();

  for (double us : buffers.admit_us) round.round_trip_us += us;
  for (double us : buffers.status_us) round.round_trip_us += us;
  round.round_trips =
      static_cast<double>(buffers.admit_us.size() + buffers.status_us.size());
  round.status_p50_us = required_percentile(report, "status", buffers.status_us, 50);
  return round;
}

/// Runs rounds for about `budget_s` (at least `min_rounds`), each checked
/// against `reference` (or the first round).
std::vector<Round> run_rounds(const Options& options,
                              const std::vector<workload::Task>& tasks, double budget_s,
                              std::size_t min_rounds, Buffers& buffers, bool keep_replies,
                              Fastest* fastest, const Round* reference, Report& report) {
  std::vector<Round> rounds;
  repeat_for(budget_s, min_rounds, kMaxRounds, [&] {
    pin_for_turn(rounds.size());
    rounds.push_back(run_round(options, tasks, buffers, keep_replies, fastest, report));
    const Round& round = rounds.back();
    report.attempt(round.requests);
    report.fail(round.failed);
    const Round& first = reference != nullptr ? *reference : rounds.front();
    if (round.digest.value != first.digest.value || round.accepted != first.accepted ||
        round.rejected != first.rejected) {
      report.fail_check("daemon round " + std::to_string(rounds.size()) +
                        " decided differently from the first round");
    }
  });
  return rounds;
}

/// Median over rounds of one per-round figure.
double median_of(const std::vector<Round>& rounds, double Round::* field) {
  std::vector<double> values;
  for (const Round& round : rounds) values.push_back(round.*field);
  return median(values);
}

/// The request sequence through an in-process shard: exact p50 of one
/// AdmissionShard::admit call, checking every decision against `replies`.
double shard_admit_p50(const std::vector<workload::Task>& tasks,
                       const std::vector<svc::AdmitReply>& replies, Report& report) {
  svc::AdmissionShard shard(kAlgorithm, svc::ShardConfig{cluster_params()});
  std::vector<double> samples;
  samples.reserve(tasks.size());
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const svc::TaskRecord record = svc::TaskRecord::from_task(tasks[i]);
    const Clock::time_point start = Clock::now();
    const svc::AdmitReply reply = shard.admit(record);
    samples.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - start).count());
    DecisionDigest got;
    DecisionDigest want;
    got.add(reply);
    if (i < replies.size()) want.add(replies[i]);
    if (i >= replies.size() || got.value != want.value) ++mismatches;
  }
  if (mismatches > 0) {
    report.fail_check("in-process shard: " + std::to_string(mismatches) +
                      " decisions differ from the daemon's");
  }
  return required_percentile(report, "shard admit", samples, 50);
}

/// Mean microseconds to frame, unframe and decode one admit request and its
/// reply with the wire codec alone.
double wire_us(const std::vector<workload::Task>& tasks,
               const std::vector<svc::AdmitReply>& replies, Report& report) {
  svc::FrameDecoder decoder;
  svc::Frame frame;
  std::size_t mismatches = 0;
  const std::size_t count = std::min(tasks.size(), replies.size());
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < count; ++i) {
    svc::AdmitRequest request;
    request.task = svc::TaskRecord::from_task(tasks[i]);
    const std::vector<std::uint8_t> request_bytes =
        svc::encode_message(svc::MsgType::kAdmitRequest, i + 1, request);
    decoder.feed(request_bytes.data(), request_bytes.size());
    if (decoder.next(frame) != svc::FrameDecoder::Status::kFrame) {
      ++mismatches;
      continue;
    }
    util::WireReader request_reader(frame.payload);
    if (svc::AdmitRequest::decode(request_reader).task.id != request.task.id) {
      ++mismatches;
    }

    const std::vector<std::uint8_t> reply_bytes =
        svc::encode_message(svc::MsgType::kAdmitReply, i + 1, replies[i]);
    decoder.feed(reply_bytes.data(), reply_bytes.size());
    if (decoder.next(frame) != svc::FrameDecoder::Status::kFrame) {
      ++mismatches;
      continue;
    }
    util::WireReader reply_reader(frame.payload);
    if (svc::AdmitReply::decode(reply_reader).decision_seq != replies[i].decision_seq) {
      ++mismatches;
    }
  }
  const double total_us =
      std::chrono::duration<double, std::micro>(Clock::now() - start).count();
  if (mismatches > 0) {
    report.fail_check("wire codec: " + std::to_string(mismatches) +
                      " messages did not round-trip");
  }
  return ratio(total_us, static_cast<double>(count));
}

}  // namespace

void run_daemon_admit(const Options& options, Report& report) {
  const std::vector<workload::Task> tasks =
      make_tasks(options.seed, round_requests(options.size));
  note("daemon_admit: " + std::to_string(tasks.size()) +
       " admits per round, status every " + std::to_string(kStatusEvery) + ", " +
       std::to_string(allowed_cpus().size()) + " cpus in turn");

  Buffers buffers;
  Fastest fastest(tasks.size());
  const double budget = options.trace ? options.seconds / 2.0 : options.seconds;
  const std::vector<Round> rounds =
      run_rounds(options, tasks, budget, options.trace ? 1 : kMinRounds, buffers, false,
                 &fastest, nullptr, report);
  const Round& first = rounds.front();

  // The round of fastest stretches gives decisions_per_s; the order
  // statistics are over the admits' fastest round trips, gathered in the
  // rounds' own sample buffer.
  std::vector<double>& admit_us = buffers.admit_us;
  admit_us.clear();
  for (double us : fastest.admit_us.values()) {
    if (us != BestTimes::kMissing) admit_us.push_back(us);
  }
  double best_round_s = 0.0;
  for (double s : fastest.stretch_s.values()) {
    if (s != BestTimes::kMissing) best_round_s += s;
  }
  note("rounds: " + std::to_string(rounds.size()) + " x " +
       std::to_string(first.accepted + first.rejected) + " admits; latency samples: " +
       std::to_string(admit_us.size()) + " admits x " + std::to_string(rounds.size()) +
       " rounds, " + std::to_string(tasks.size() / kStatusEvery) +
       " status reads per round");
  note("round of fastest stretches: " + std::to_string(best_round_s) +
       " s; median round " + std::to_string(median_of(rounds, &Round::rate)) +
       " decisions/s");

  if (!options.trace) {
    EndToEnd metrics;
    metrics.decisions_per_s =
        ratio(static_cast<double>(first.accepted + first.rejected), best_round_s);
    metrics.reject_ratio = ratio(static_cast<double>(first.rejected),
                                 static_cast<double>(first.accepted + first.rejected));
    metrics.peak_rss_mb = peak_rss_mb();
    metrics.setup_s = median_of(rounds, &Round::setup_s);
    metrics.admit_p50_us = required_percentile(report, "admit", admit_us, 50);
    metrics.admit_p99_us = required_percentile(report, "admit", admit_us, 99);
    add_end_to_end(report, metrics);
    return;
  }

  const RegistryTotals before = RegistryTotals::read();
  const std::vector<Round> traced = run_rounds(options, tasks, 0.0, kTracedRounds,
                                               buffers, true, nullptr, &first, report);
  const RegistryTotals delta = RegistryTotals::read().since(before);

  Layers layers;
  double server_us = 0.0;
  double server_requests = 0.0;
  double round_trip_us = 0.0;
  double round_trips = 0.0;
  double unaccounted = 0.0;
  double session_peak = 0.0;
  for (const Round& round : traced) {
    server_us += round.server_us;
    server_requests += round.server_requests;
    round_trip_us += round.round_trip_us;
    round_trips += round.round_trips;
    unaccounted += round.seconds - round.round_trip_us * 1e-6;
    session_peak = std::max(session_peak, round.session_peak_bytes);
    layers.svc_errors += static_cast<double>(round.counters.errors);
    layers.svc_timeouts += static_cast<double>(round.counters.timeouts);
  }
  layers.sched_session_rebuilds = delta.session_rebuilds;
  layers.sched_delta_replays = delta.delta_replays;
  layers.sched_replan_suffix_mean =
      ratio(delta.replan_suffix_sum, delta.replan_suffix_count);
  layers.sched_session_peak_kb = session_peak / 1024.0;
  layers.cluster_index_commits = delta.index_commits;
  layers.cluster_commit_depth_mean = ratio(delta.index_depth_sum, delta.index_commits);
  layers.svc_server_us_mean = ratio(server_us, server_requests);
  layers.svc_transport_us = ratio(round_trip_us, round_trips) - layers.svc_server_us_mean;
  layers.svc_status_us_p50 = median_of(traced, &Round::status_p50_us);
  layers.svc_shard_admit_us_p50 = shard_admit_p50(tasks, buffers.replies, report);
  layers.svc_wire_us = wire_us(tasks, buffers.replies, report);
  layers.unaccounted_s = unaccounted / static_cast<double>(traced.size());
  layers.trace_overhead_ratio =
      ratio(median_of(rounds, &Round::rate), median_of(traced, &Round::rate));
  add_layers(report, layers);
}

}  // namespace perfbench
