// rtdls command-line tool: the library's functionality without writing C++.
//
//   rtdls_cli algorithms                       list algorithm names
//   rtdls_cli generate --out trace.csv ...     generate a workload trace
//   rtdls_cli simulate --trace trace.csv --algorithm EDF-DLT [...]
//   rtdls_cli sweep --algorithms EDF-OPR-MN,EDF-DLT [...]    load sweep
//   rtdls_cli figure --id fig03 [...]          reproduce one paper figure
//   rtdls_cli campaign <list|run>              multi-figure experiment plans
//   rtdls_cli daemon --socket /tmp/rtdlsd.sock ...   admission-control daemon
//   rtdls_cli admit|commit|cancel|status|snapshot|shutdown --socket ...
//                                              client requests against a daemon
//
// A campaign is any set of figures flattened into one deterministic
// cell-level work queue, run on one machine's thread pool (`campaign run
// --figures all`); its CSVs are byte-identical at any --jobs. Plans come
// from the built-in figure inventory (--figures) or from declarative spec
// files (--spec, see exp/spec_io.hpp).
//
// Run any subcommand with --help for its options.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "cluster/speed_profile.hpp"
#include "dlt/params.hpp"
#include "exp/campaign.hpp"
#include "exp/registry.hpp"
#include "exp/report.hpp"
#include "exp/spec_io.hpp"
#include "obs/trace.hpp"
#include "sched/registry.hpp"
#include "sim/simulator.hpp"
#include "svc/client.hpp"
#include "svc/server.hpp"
#include "util/build_info.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"
#include "workload/generator.hpp"
#include "workload/trace.hpp"

namespace {

using namespace rtdls;

void add_workload_options(util::CliParser& cli) {
  cli.add_option({"nodes", "cluster size N", "16", false});
  cli.add_option({"cms", "unit transmission cost", "1", false});
  cli.add_option({"cps", "unit processing cost", "100", false});
  cli.add_option({"load", "SystemLoad", "0.8", false});
  cli.add_option({"sigma", "average data size", "200", false});
  cli.add_option({"dcratio", "deadline/cost ratio", "2", false});
  cli.add_option({"simtime", "TotalSimulationTime", "1000000", false});
  cli.add_option({"seed", "RNG seed", "42", false});
  cli.add_option({"help", "show usage", "", true});
}

workload::WorkloadParams workload_from_cli(const util::CliParser& cli) {
  workload::WorkloadParams params;
  params.cluster.node_count = static_cast<std::size_t>(cli.get_int("nodes", 16));
  params.cluster.cms = cli.get_double("cms", 1.0);
  params.cluster.cps = cli.get_double("cps", 100.0);
  params.system_load = cli.get_double("load", 0.8);
  params.avg_sigma = cli.get_double("sigma", 200.0);
  params.dc_ratio = cli.get_double("dcratio", 2.0);
  params.total_time = cli.get_double("simtime", 1'000'000.0);
  params.seed = cli.get_uint64("seed", 42);
  return params;
}

void add_sim_config_options(util::CliParser& cli) {
  cli.add_option({"release", "estimate|actual node release", "estimate", false});
  cli.add_option({"output-ratio", "result volume fraction delta", "0", false});
  cli.add_option({"shared-link", "model a shared head-node link", "", true});
  cli.add_option({"het-profile",
                  "per-node speed profile key: uniform:lo,hi[,seed] | "
                  "two_tier:fast,slow,frac[,seed] | lognormal:cv[,seed] | csv:path",
                  "", false});
}

std::string het_profile_from_cli(const util::CliParser& cli) {
  return cli.get("het-profile").value_or("");
}

sim::ReleasePolicy release_from_cli(const util::CliParser& cli) {
  return util::to_lower(cli.get("release").value_or("estimate")) == "actual"
             ? sim::ReleasePolicy::kActual
             : sim::ReleasePolicy::kEstimate;
}

// --- tracing ----------------------------------------------------------------

void add_trace_option(util::CliParser& cli) {
  cli.add_option({"trace-out",
                  "write a Chrome trace-event JSON file (Perfetto-loadable) "
                  "covering the run",
                  "", false});
}

/// Arms the trace recorder when --trace-out was passed; returns the path.
std::string arm_trace(const util::CliParser& cli) {
  const std::string path = cli.get("trace-out").value_or("");
#if RTDLS_TRACE_ENABLED
  if (!path.empty()) obs::TraceRecorder::instance().start();
#else
  if (!path.empty()) {
    throw std::invalid_argument(
        "--trace-out: the trace recorder is compiled out of this build "
        "(-DRTDLS_TRACE=OFF)");
  }
#endif
  return path;
}

/// Flushes the armed recorder to `path` (no-op when empty); returns the
/// process exit code contribution (1 on I/O failure).
int write_trace(const std::string& path) {
  if (path.empty()) return 0;
#if RTDLS_TRACE_ENABLED
  obs::TraceRecorder& recorder = obs::TraceRecorder::instance();
  recorder.stop();
  std::string error;
  if (!recorder.write_json_file(path, &error)) {
    std::fprintf(stderr, "trace: %s\n", error.c_str());
    return 1;
  }
  std::fprintf(stderr, "trace: wrote %s (%zu event(s), %zu dropped by ring wrap)\n",
               path.c_str(), recorder.event_count(), recorder.dropped());
#endif
  return 0;
}

// --- signals ----------------------------------------------------------------

/// SIGINT/SIGTERM land here while the daemon runs; its loop treats them
/// exactly like a shutdown request (final snapshot included). A lock-free
/// atomic store is all the handler does, keeping it async-signal-safe.
std::atomic<bool> g_interrupted{false};

void on_signal(int) { g_interrupted.store(true); }

void install_signal_handlers() {
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
}

int cmd_algorithms() {
  std::puts("paper algorithms (Section 5):");
  for (const std::string& name : sched::paper_algorithm_names()) {
    std::printf("  %s\n", name.c_str());
  }
  std::puts("extensions:");
  for (const std::string& name : sched::all_algorithm_names()) {
    bool in_paper = false;
    for (const std::string& paper : sched::paper_algorithm_names()) {
      if (paper == name) in_paper = true;
    }
    if (!in_paper) std::printf("  %s\n", name.c_str());
  }
  std::puts("modifiers: <policy>-<rule>-Opt (optimistic n search),");
  std::puts("           <any>-IO<p> (p% output data, pair with --output-ratio)");
  return 0;
}

int cmd_generate(int argc, const char* const* argv) {
  util::CliParser cli;
  add_workload_options(cli);
  cli.add_option({"out", "output trace CSV path", "trace.csv", false});
  if (!cli.parse(argc, argv) || cli.get_flag("help")) {
    std::fputs(cli.usage("rtdls_cli generate").c_str(), stderr);
    return cli.get_flag("help") ? 0 : 1;
  }
  const workload::WorkloadParams params = workload_from_cli(cli);
  const auto tasks = workload::generate_workload(params);
  const std::string path = cli.get("out").value();
  workload::save_trace_file(path, tasks);
  std::printf("wrote %zu tasks to %s (empirical load %.3f)\n", tasks.size(), path.c_str(),
              workload::empirical_load(params, tasks));
  return 0;
}

int cmd_simulate(int argc, const char* const* argv) {
  util::CliParser cli;
  add_workload_options(cli);
  cli.add_option({"trace", "input trace CSV (else generated)", "", false});
  cli.add_option({"sort-arrivals", "sort an unsorted trace by arrival instead of rejecting",
                  "", true});
  cli.add_option({"stream",
                  "replay --trace in bounded-memory chunks (O(chunk) peak RSS; "
                  "incompatible with --sort-arrivals, which needs the full trace)",
                  "", true});
  cli.add_option({"chunk-tasks", "tasks per streamed chunk (--stream)", "65536", false});
  cli.add_option({"algorithm", "algorithm name", "EDF-DLT", false});
  add_sim_config_options(cli);
  add_trace_option(cli);
  if (!cli.parse(argc, argv) || cli.get_flag("help")) {
    std::fputs(cli.usage("rtdls_cli simulate").c_str(), stderr);
    return cli.get_flag("help") ? 0 : 1;
  }
  const std::string trace_path = arm_trace(cli);
  const workload::WorkloadParams params = workload_from_cli(cli);
  const std::string trace_in = cli.get("trace").value_or("");
  const bool stream = cli.get_flag("stream");
  if (stream && trace_in.empty()) {
    throw std::invalid_argument("--stream requires --trace (generated workloads are "
                                "already in memory)");
  }

  sim::SimulatorConfig config;
  config.params = params.cluster;
  config.release_policy = release_from_cli(cli);
  config.output_ratio = cli.get_double("output-ratio", 0.0);
  config.shared_link = cli.get_flag("shared-link");
  if (const std::string key = het_profile_from_cli(cli); !key.empty()) {
    config.params.speed_profile = std::make_shared<const cluster::SpeedProfile>(
        cluster::parse_speed_profile(key, config.params.node_count, config.params.cps));
    std::printf("speed profile: %s\n", config.params.speed_profile->describe().c_str());
  }

  const std::string algorithm = cli.get("algorithm").value_or("EDF-DLT");
  sim::SimMetrics metrics;
  std::size_t task_count = 0;
  if (stream) {
    workload::TraceReader::Options options;
    options.chunk_tasks = static_cast<std::size_t>(cli.get_int("chunk-tasks", 65536));
    // A streamed reader cannot sort; TraceReader rejects the combination
    // with a typed StreamedSortError naming the workaround.
    options.sort_arrivals = cli.get_flag("sort-arrivals");
    workload::TraceReader reader(trace_in, options);
    sim::StreamingTaskSource source(reader);
    const sched::Algorithm algo = sched::make_algorithm(algorithm);
    sim::ClusterSimulator simulator(config, algo);
    metrics = simulator.run_stream(source, params.total_time);
    task_count = reader.tasks_read();
    std::fprintf(stderr, "stream: %zu tasks, peak %zu resident (%zu-task chunks)\n",
                 task_count, source.peak_resident_tasks(), options.chunk_tasks);
  } else {
    std::vector<workload::Task> tasks;
    if (!trace_in.empty()) {
      tasks = workload::load_trace_file(trace_in, cli.get_flag("sort-arrivals"));
    } else {
      tasks = workload::generate_workload(params);
    }
    task_count = tasks.size();
    metrics = sim::simulate(config, algorithm, tasks, params.total_time);
  }
  std::printf("--- %s over %zu tasks ---\n%s", algorithm.c_str(), task_count,
              metrics.summary().c_str());
  return write_trace(trace_path);
}

int cmd_sweep(int argc, const char* const* argv) {
  util::CliParser cli;
  add_workload_options(cli);
  cli.add_option({"algorithms", "comma-separated names", "EDF-OPR-MN,EDF-DLT", false});
  cli.add_option({"runs", "runs per point", "5", false});
  cli.add_option({"csv-dir", "directory for CSV/gnuplot output", "results", false});
  add_sim_config_options(cli);
  cli.add_option({"halt-on-theorem4", "abort on a Theorem-4 violation; 0 records it in the "
                  "theorem4_violations series instead (ablation-style runs)", "1", false});
  add_trace_option(cli);
  if (!cli.parse(argc, argv) || cli.get_flag("help")) {
    std::fputs(cli.usage("rtdls_cli sweep").c_str(), stderr);
    return cli.get_flag("help") ? 0 : 1;
  }
  const std::string trace_path = arm_trace(cli);
  exp::SweepSpec spec;
  spec.id = "cli_sweep";
  spec.title = "command-line sweep";
  const workload::WorkloadParams params = workload_from_cli(cli);
  spec.cluster = params.cluster;
  spec.avg_sigma = params.avg_sigma;
  spec.dc_ratio = params.dc_ratio;
  spec.loads = exp::SweepSpec::paper_loads();
  spec.runs = static_cast<std::size_t>(cli.get_int("runs", 5));
  spec.sim_time = params.total_time;
  spec.seed = params.seed;
  spec.release_policy = release_from_cli(cli);
  spec.output_ratio = cli.get_double("output-ratio", 0.0);
  spec.shared_link = cli.get_flag("shared-link");
  spec.het_profile = het_profile_from_cli(cli);
  spec.halt_on_theorem4 = cli.get_int("halt-on-theorem4", 1) != 0;
  for (const std::string& name : util::split(cli.get("algorithms").value(), ',')) {
    spec.algorithms.push_back(std::string(util::trim(name)));
  }
  const exp::SweepResult result = exp::run_sweep(spec);
  std::fputs(exp::render_sweep(result).c_str(), stdout);
  const std::string dir = cli.get("csv-dir").value();
  std::printf("csv: %s\ngnuplot: %s\n", exp::write_sweep_csv(dir, result).c_str(),
              exp::write_sweep_gnuplot(dir, result).c_str());
  return write_trace(trace_path);
}

void print_figure_ids(std::FILE* out) {
  std::fputs("ids:", out);
  for (const std::string& id : exp::figure_ids()) std::fprintf(out, " %s", id.c_str());
  std::fputc('\n', out);
}

int cmd_figure(int argc, const char* const* argv) {
  util::CliParser cli;
  cli.add_option({"id", "figure id (see `rtdls_cli campaign list`)", "fig03", false});
  cli.add_option({"help", "show usage", "", true});
  if (!cli.parse(argc, argv) || cli.get_flag("help")) {
    std::fputs(cli.usage("rtdls_cli figure").c_str(), stderr);
    print_figure_ids(stderr);
    return cli.get_flag("help") ? 0 : 1;
  }
  const std::string id = cli.get("id").value();
  const exp::Scale scale = exp::Scale::from_env();
  int warnings = 0;
  try {
    warnings = exp::report_figure(exp::find_figure(id, scale));
  } catch (const std::invalid_argument&) {
    std::fprintf(stderr, "unknown figure id '%s'\n", id.c_str());
    print_figure_ids(stderr);
    return 1;
  }
  if (warnings != 0) {
    std::printf("%d shape check(s) below expectation at this scale\n", warnings);
  }
  // Reduced-scale noise must not break batch reproduction runs: report only.
  return 0;
}

// --- campaign ---------------------------------------------------------------

void add_campaign_plan_options(util::CliParser& cli) {
  cli.add_option({"figures", "comma-separated figure ids, or `paper` / `all`", "", false});
  cli.add_option({"spec", "campaign spec file (see exp/spec_io.hpp)", "", false});
  cli.add_option({"help", "show usage", "", true});
}

/// Builds the experiment plan from --spec or --figures (exactly one).
exp::Campaign campaign_from_cli(const util::CliParser& cli, const exp::Scale& scale) {
  const std::string spec_path = cli.get("spec").value_or("");
  const std::string figure_list = cli.get("figures").value_or("");
  if (!spec_path.empty() && !figure_list.empty()) {
    throw std::invalid_argument("campaign: pass --spec or --figures, not both");
  }
  if (!spec_path.empty()) {
    std::ifstream file(spec_path);
    if (!file) throw std::runtime_error("campaign: cannot open spec file " + spec_path);
    std::ostringstream text;
    text << file.rdbuf();
    return exp::Campaign(exp::parse_campaign(
        text.str(), [&scale](const std::string& id) { return exp::find_figure(id, scale); }));
  }
  if (figure_list.empty()) {
    throw std::invalid_argument("campaign: pass --figures id[,id...] (or `paper`/`all`) "
                                "or --spec file");
  }
  if (figure_list == "all") return exp::Campaign(exp::all_figures(scale));
  if (figure_list == "paper") return exp::Campaign(exp::paper_figures(scale));
  std::vector<exp::FigureSpec> figures;
  for (const std::string& id : util::split(figure_list, ',')) {
    figures.push_back(exp::find_figure(std::string(util::trim(id)), scale));
  }
  return exp::Campaign(std::move(figures));
}

/// Renders results figure by figure, writes the final CSV/gnuplot files,
/// prints the shape checks.
int report_campaign(const exp::Campaign& campaign, const std::vector<exp::SweepResult>& results,
                    const std::string& dir, bool quiet) {
  int failures = 0;
  std::size_t sweep = 0;
  for (const exp::FigureSpec& figure : campaign.figures()) {
    std::printf("=== %s: %s ===\n", figure.id.c_str(), figure.title.c_str());
    const std::vector<exp::SweepResult> panels(
        results.begin() + static_cast<std::ptrdiff_t>(sweep),
        results.begin() + static_cast<std::ptrdiff_t>(sweep + figure.panels.size()));
    sweep += figure.panels.size();
    for (const exp::SweepResult& panel : panels) {
      if (!quiet) std::fputs(exp::render_sweep(panel).c_str(), stdout);
      const std::string csv = exp::write_sweep_csv(dir, panel);
      const std::string gp = exp::write_sweep_gnuplot(dir, panel);
      std::printf("csv: %s   gnuplot: %s\n", csv.c_str(), gp.c_str());
    }
    for (const exp::ShapeCheck& check : exp::evaluate_checks(panels)) {
      std::printf("[%s] %s  (%s)\n", check.passed ? "PASS" : "WARN",
                  check.description.c_str(), check.detail.c_str());
      if (!check.passed) ++failures;
    }
    std::fputc('\n', stdout);
  }
  std::fflush(stdout);
  return failures;
}

std::size_t campaign_jobs(const util::CliParser& cli, const exp::Scale& scale) {
  const std::size_t jobs = static_cast<std::size_t>(cli.get_int("jobs", 0));
  return jobs != 0 ? jobs : scale.jobs;
}

int cmd_campaign_list() {
  const exp::Scale scale = exp::Scale::from_env();
  std::printf("%-22s %7s  %s\n", "id", "panels", "title");
  for (const std::string& id : exp::figure_ids()) {
    const exp::FigureSpec figure = exp::find_figure(id, scale);
    std::printf("%-22s %7zu  %s\n", figure.id.c_str(), figure.panels.size(),
                figure.title.c_str());
  }
  std::puts("(`--figures paper` = fig03..fig16, `--figures all` = + ablations)");
  return 0;
}

int cmd_campaign_run(int argc, const char* const* argv) {
  util::CliParser cli;
  add_campaign_plan_options(cli);
  cli.add_option({"csv-dir", "directory for final CSV/gnuplot output", "results", false});
  cli.add_option({"jobs", "worker threads (default: RTDLS_JOBS/hardware)", "0", false});
  cli.add_option({"progress", "print live cell progress to stderr", "", true});
  cli.add_option({"quiet", "skip tables/charts; print file paths and checks only", "", true});
  if (!cli.parse(argc, argv) || cli.get_flag("help")) {
    std::fputs(cli.usage("rtdls_cli campaign run").c_str(), stderr);
    return cli.get_flag("help") ? 0 : 1;
  }
  const exp::Scale scale = exp::Scale::from_env();
  const exp::Campaign campaign = campaign_from_cli(cli, scale);
  util::ThreadPool pool(campaign_jobs(cli, scale));
  exp::CampaignOptions options;
  options.pool = &pool;
  if (cli.get_flag("progress")) {
    options.progress = [](const exp::CellRef&, std::size_t done, std::size_t total) {
      std::fprintf(stderr, "\rcampaign: %zu/%zu cells", done, total);
      if (done == total) std::fputc('\n', stderr);
      std::fflush(stderr);
    };
  }

  exp::AggregateSink aggregate(campaign);
  const auto wall_start = std::chrono::steady_clock::now();
  exp::run_campaign(campaign, options, aggregate);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();

  const int failures = report_campaign(campaign, aggregate.take(wall),
                                       cli.get("csv-dir").value(), cli.get_flag("quiet"));
  std::printf("campaign: %zu cells in %.3fs", campaign.cell_count(), wall);
  if (failures != 0) std::printf(", %d shape check(s) below expectation at this scale", failures);
  std::fputc('\n', stdout);
  return 0;
}

int cmd_campaign(int argc, const char* const* argv) {
  const char* verb = argc >= 2 ? argv[1] : "";
  if (std::strcmp(verb, "list") == 0) return cmd_campaign_list();
  if (std::strcmp(verb, "run") == 0) return cmd_campaign_run(argc - 1, argv + 1);
  std::fputs(
      "usage: rtdls_cli campaign <verb> [options]\n"
      "verbs:\n"
      "  list    the figure inventory (ids usable with --figures / spec `use =`)\n"
      "  run     execute a whole campaign: final CSVs, charts, shape checks\n"
      "plans: --figures fig03,fig08 | --figures paper | --figures all | --spec plan.spec\n",
      stderr);
  return std::strcmp(verb, "--help") == 0 ? 0 : 1;
}

// --- daemon / service -------------------------------------------------------

std::string socket_from_cli(const util::CliParser& cli) {
  const std::string path = cli.get("socket").value_or("");
  if (path.empty()) throw std::invalid_argument("--socket path is required");
  return path;
}

int cmd_daemon(int argc, const char* const* argv) {
  util::CliParser cli;
  cli.add_option({"socket", "unix socket path to listen on", "", false});
  cli.add_option({"algorithm", "admission algorithm run by every shard", "EDF-DLT", false});
  cli.add_option({"nodes", "cluster size N per shard", "16", false});
  cli.add_option({"cms", "unit transmission cost", "1", false});
  cli.add_option({"cps", "unit processing cost", "100", false});
  cli.add_option({"het-profile",
                  "per-node speed profile key (same keys as `simulate --het-profile`)", "",
                  false});
  cli.add_option({"shards", "independent admission shards (one cluster each)", "4", false});
  cli.add_option({"workers", "connection worker threads", "4", false});
  cli.add_option({"deadline-ms", "default per-request wall-clock budget", "2000", false});
  cli.add_option({"snapshot",
                  "snapshot file written on shutdown (and the default target for "
                  "`rtdls_cli snapshot`)",
                  "", false});
  cli.add_option({"restore",
                  "restore shards from this snapshot file at start (its metadata "
                  "overrides --algorithm/--nodes/--shards)",
                  "", false});
  add_trace_option(cli);
  cli.add_option({"help", "show usage", "", true});
  if (!cli.parse(argc, argv) || cli.get_flag("help")) {
    std::fputs(cli.usage("rtdls_cli daemon").c_str(), stderr);
    return cli.get_flag("help") ? 0 : 1;
  }
  // Daemon lines go through the leveled logger (RTDLS_LOG routes them); an
  // operator who did not set a level still gets the startup banner.
  if (std::getenv("RTDLS_LOG") == nullptr) {
    util::Logger::instance().set_level(util::LogLevel::kInfo);
  }
  const std::string trace_path = arm_trace(cli);

  svc::DaemonConfig config;
  config.socket_path = socket_from_cli(cli);
  config.algorithm = cli.get("algorithm").value_or("EDF-DLT");
  config.params.node_count = static_cast<std::size_t>(cli.get_int("nodes", 16));
  config.params.cms = cli.get_double("cms", 1.0);
  config.params.cps = cli.get_double("cps", 100.0);
  if (const std::string key = cli.get("het-profile").value_or(""); !key.empty()) {
    config.params.speed_profile = std::make_shared<const cluster::SpeedProfile>(
        cluster::parse_speed_profile(key, config.params.node_count, config.params.cps));
  }
  config.shards = static_cast<std::size_t>(cli.get_int("shards", 4));
  config.workers = static_cast<std::size_t>(cli.get_int("workers", 4));
  config.default_deadline_ms = static_cast<std::uint32_t>(cli.get_int("deadline-ms", 2000));
  config.snapshot_path = cli.get("snapshot").value_or("");
  config.restore_path = cli.get("restore").value_or("");

  svc::Daemon daemon(std::move(config));
  install_signal_handlers();
  daemon.start();
  const svc::DaemonConfig& live = daemon.config();
  RTDLS_LOG(kInfo) << "rtdlsd: " << live.algorithm << " on " << live.socket_path << " - "
                   << daemon.shard_count() << " shard(s) x " << live.params.node_count
                   << " nodes, " << live.workers << " worker(s)";
  if (!live.restore_path.empty()) {
    RTDLS_LOG(kInfo) << "rtdlsd: restored " << daemon.shard_count() << " shard(s) from "
                     << live.restore_path;
  }
  RTDLS_LOG(kInfo) << "rtdlsd: " << util::build_description();

  while (!daemon.stop_requested() && !g_interrupted.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  daemon.stop();  // joins workers and writes the final snapshot (if configured)
  RTDLS_LOG(kInfo) << "rtdlsd: stopped - " << daemon.counters().summary();
  if (!live.snapshot_path.empty()) {
    RTDLS_LOG(kInfo) << "rtdlsd: final snapshot at " << live.snapshot_path
                     << " (restart with --restore " << live.snapshot_path << " to resume)";
  }
  return write_trace(trace_path);
}

void add_client_options(util::CliParser& cli) {
  cli.add_option({"socket", "daemon unix socket path", "", false});
  cli.add_option({"timeout-ms", "client-side reply timeout", "5000", false});
  cli.add_option({"help", "show usage", "", true});
}

svc::Client make_client(const util::CliParser& cli) {
  return svc::Client(socket_from_cli(cli), cli.get_int("timeout-ms", 5000));
}

int cmd_admit(int argc, const char* const* argv) {
  util::CliParser cli;
  add_client_options(cli);
  cli.add_option({"shard", "target shard index", "0", false});
  cli.add_option({"id", "task id (unique within the shard)", "1", false});
  cli.add_option({"arrival", "arrival time (floored at the shard clock)", "0", false});
  cli.add_option({"sigma", "task data size", "200", false});
  cli.add_option({"deadline", "relative deadline", "5000", false});
  cli.add_option({"user-nodes", "fixed node count n (0 = algorithm decides)", "0", false});
  cli.add_option({"deadline-ms",
                  "per-request wall-clock budget override (0 = daemon default)", "0", false});
  if (!cli.parse(argc, argv) || cli.get_flag("help")) {
    std::fputs(cli.usage("rtdls_cli admit").c_str(), stderr);
    return cli.get_flag("help") ? 0 : 1;
  }
  svc::Client client = make_client(cli);
  svc::AdmitRequest request;
  request.shard = static_cast<std::uint32_t>(cli.get_int("shard", 0));
  request.deadline_ms = static_cast<std::uint32_t>(cli.get_int("deadline-ms", 0));
  request.task.id = static_cast<cluster::TaskId>(cli.get_uint64("id", 1));
  request.task.arrival = cli.get_double("arrival", 0.0);
  request.task.sigma = cli.get_double("sigma", 200.0);
  request.task.rel_deadline = cli.get_double("deadline", 500.0);
  request.task.user_nodes = cli.get_uint64("user-nodes", 0);
  const svc::AdmitReply reply = client.admit(request);
  if (reply.accepted) {
    std::printf("accepted: task %llu on %llu node(s), est completion %.6g "
                "(decision %llu, %llu waiting)\n",
                static_cast<unsigned long long>(request.task.id),
                static_cast<unsigned long long>(reply.nodes), reply.est_completion,
                static_cast<unsigned long long>(reply.decision_seq),
                static_cast<unsigned long long>(reply.waiting));
    return 0;
  }
  std::printf("rejected: task %llu - %s", static_cast<unsigned long long>(request.task.id),
              dlt::infeasibility_name(static_cast<dlt::Infeasibility>(reply.reason)));
  if (reply.blocking_task != cluster::kNoTask) {
    std::printf(" (blocked by task %llu)",
                static_cast<unsigned long long>(reply.blocking_task));
  }
  std::printf(" (decision %llu, %llu waiting)\n",
              static_cast<unsigned long long>(reply.decision_seq),
              static_cast<unsigned long long>(reply.waiting));
  return 2;  // distinct from usage/transport errors: the daemon said no
}

int cmd_commit(int argc, const char* const* argv) {
  util::CliParser cli;
  add_client_options(cli);
  cli.add_option({"shard", "target shard index", "0", false});
  cli.add_option({"id", "waiting task id to commit", "1", false});
  if (!cli.parse(argc, argv) || cli.get_flag("help")) {
    std::fputs(cli.usage("rtdls_cli commit").c_str(), stderr);
    return cli.get_flag("help") ? 0 : 1;
  }
  svc::Client client = make_client(cli);
  const svc::CommitReply reply =
      client.commit(static_cast<std::uint32_t>(cli.get_int("shard", 0)),
                    static_cast<cluster::TaskId>(cli.get_uint64("id", 1)));
  std::printf("committed at %.6g (%llu earlier-due plan(s) committed alongside)\n",
              reply.committed_at, static_cast<unsigned long long>(reply.also_committed));
  return 0;
}

int cmd_cancel(int argc, const char* const* argv) {
  util::CliParser cli;
  add_client_options(cli);
  cli.add_option({"shard", "target shard index", "0", false});
  cli.add_option({"id", "waiting task id to cancel", "1", false});
  if (!cli.parse(argc, argv) || cli.get_flag("help")) {
    std::fputs(cli.usage("rtdls_cli cancel").c_str(), stderr);
    return cli.get_flag("help") ? 0 : 1;
  }
  svc::Client client = make_client(cli);
  client.cancel(static_cast<std::uint32_t>(cli.get_int("shard", 0)),
                static_cast<cluster::TaskId>(cli.get_uint64("id", 1)));
  std::puts("cancelled");
  return 0;
}

int cmd_status(int argc, const char* const* argv) {
  util::CliParser cli;
  add_client_options(cli);
  if (!cli.parse(argc, argv) || cli.get_flag("help")) {
    std::fputs(cli.usage("rtdls_cli status").c_str(), stderr);
    return cli.get_flag("help") ? 0 : 1;
  }
  svc::Client client = make_client(cli);
  const svc::StatusReply status = client.status();
  std::printf("build:     %s\n", status.build.c_str());
  std::printf("algorithm: %s (%llu nodes/shard, %llu worker(s))\n", status.algorithm.c_str(),
              static_cast<unsigned long long>(status.node_count),
              static_cast<unsigned long long>(status.workers));
  std::printf("service:   %s\n", status.counters.summary().c_str());
  if (status.extended) {
    std::printf("uptime:    %.3fs, queue depth %llu\n",
                static_cast<double>(status.uptime_ms) / 1000.0,
                static_cast<unsigned long long>(status.queue_depth));
  }
  for (const svc::ShardStatus& shard : status.shards) {
    std::printf("shard %u: now=%.6g waiting=%llu admits=%llu (%llu accepted, %llu rejected) "
                "committed=%llu cancelled=%llu session=%lluB (peak %lluB, dense %lluB)\n",
                shard.shard, shard.now, static_cast<unsigned long long>(shard.waiting),
                static_cast<unsigned long long>(shard.admits),
                static_cast<unsigned long long>(shard.accepted),
                static_cast<unsigned long long>(shard.rejected),
                static_cast<unsigned long long>(shard.committed),
                static_cast<unsigned long long>(shard.cancelled),
                static_cast<unsigned long long>(shard.session_bytes),
                static_cast<unsigned long long>(shard.peak_session_bytes),
                static_cast<unsigned long long>(shard.session_dense_bytes));
    if (status.extended && shard.shard < status.shard_latency.size()) {
      const svc::ShardLatency& latency = status.shard_latency[shard.shard];
      if (latency.count > 0) {
        std::printf("  latency: %llu request(s), p50=%.1fus p90=%.1fus p99=%.1fus "
                    "max=%.1fus\n",
                    static_cast<unsigned long long>(latency.count), latency.p50_us,
                    latency.p90_us, latency.p99_us, latency.max_us);
      }
    }
  }
  return 0;
}

int cmd_stats(int argc, const char* const* argv) {
  util::CliParser cli;
  add_client_options(cli);
  if (!cli.parse(argc, argv) || cli.get_flag("help")) {
    std::fputs(cli.usage("rtdls_cli stats").c_str(), stderr);
    return cli.get_flag("help") ? 0 : 1;
  }
  svc::Client client = make_client(cli);
  const svc::MetricsReply reply = client.metrics();
  std::fputs(reply.text.c_str(), stdout);
  return 0;
}

int cmd_snapshot(int argc, const char* const* argv) {
  util::CliParser cli;
  add_client_options(cli);
  cli.add_option({"out",
                  "server-side snapshot path (empty = the daemon's --snapshot default)", "",
                  false});
  if (!cli.parse(argc, argv) || cli.get_flag("help")) {
    std::fputs(cli.usage("rtdls_cli snapshot").c_str(), stderr);
    return cli.get_flag("help") ? 0 : 1;
  }
  svc::Client client = make_client(cli);
  const svc::SnapshotReply reply = client.snapshot(cli.get("out").value_or(""));
  std::printf("snapshot written: %llu shard(s), %llu bytes\n",
              static_cast<unsigned long long>(reply.shards),
              static_cast<unsigned long long>(reply.bytes));
  return 0;
}

int cmd_shutdown(int argc, const char* const* argv) {
  util::CliParser cli;
  add_client_options(cli);
  if (!cli.parse(argc, argv) || cli.get_flag("help")) {
    std::fputs(cli.usage("rtdls_cli shutdown").c_str(), stderr);
    return cli.get_flag("help") ? 0 : 1;
  }
  svc::Client client = make_client(cli);
  client.shutdown();
  std::puts("shutdown acknowledged");
  return 0;
}

void print_usage() {
  std::fputs(
      "usage: rtdls_cli <command> [options]\n"
      "commands:\n"
      "  algorithms   list available scheduling algorithms\n"
      "  generate     generate a workload trace CSV\n"
      "  simulate     run one algorithm over a trace or generated workload\n"
      "  sweep        reject-ratio load sweep for a set of algorithms\n"
      "  figure       reproduce a paper figure / ablation by id\n"
      "  campaign     list/run multi-figure experiment plans\n"
      "  daemon       serve admission control over a unix socket (rtdlsd)\n"
      "  admit | commit | cancel | status | stats | snapshot | shutdown\n"
      "               client requests against a running daemon (--socket);\n"
      "               stats prints the daemon's Prometheus-style metrics\n"
      "  --version    print the build description (compiler, build type, sanitizers, tracing)\n",
      stderr);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    print_usage();
    return 1;
  }
  const std::string command = argv[1];
  try {
    if (command == "--version" || command == "version") {
      std::printf("%s (protocol v%u)\n", util::build_description().c_str(),
                  static_cast<unsigned>(svc::kProtocolVersion));
      return 0;
    }
    if (command == "algorithms") return cmd_algorithms();
    if (command == "generate") return cmd_generate(argc - 1, argv + 1);
    if (command == "simulate") return cmd_simulate(argc - 1, argv + 1);
    if (command == "sweep") return cmd_sweep(argc - 1, argv + 1);
    if (command == "figure") return cmd_figure(argc - 1, argv + 1);
    if (command == "campaign") return cmd_campaign(argc - 1, argv + 1);
    if (command == "daemon") return cmd_daemon(argc - 1, argv + 1);
    if (command == "admit") return cmd_admit(argc - 1, argv + 1);
    if (command == "commit") return cmd_commit(argc - 1, argv + 1);
    if (command == "cancel") return cmd_cancel(argc - 1, argv + 1);
    if (command == "status") return cmd_status(argc - 1, argv + 1);
    if (command == "stats") return cmd_stats(argc - 1, argv + 1);
    if (command == "snapshot") return cmd_snapshot(argc - 1, argv + 1);
    if (command == "shutdown") return cmd_shutdown(argc - 1, argv + 1);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
  print_usage();
  return 1;
}
