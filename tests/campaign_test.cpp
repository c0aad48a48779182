// Tests for the campaign layer: spec-file round-trips, the cell-level work
// queue, failed-cell reporting, and pooled-vs-serial determinism against the
// classic run_sweep path.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "exp/campaign.hpp"
#include "exp/registry.hpp"
#include "exp/report.hpp"
#include "exp/spec_io.hpp"

namespace rtdls::exp {
namespace {

SweepSpec tiny_sweep_a() {
  return SweepBuilder("camp_a", "tiny EDF pair")
      .cluster(16, 1.0, 100.0)
      .loads({0.3, 0.9})
      .algorithms({"EDF-OPR-MN", "EDF-DLT"})
      .runs(2)
      .sim_time(60000.0)
      .expected_winner("EDF-DLT")
      .build();
}

SweepSpec tiny_sweep_b() {
  // Deliberately different shape: 3 loads, 3 algorithms, other parameters.
  return SweepBuilder("camp_b", "tiny UserSplit comparison")
      .cluster(8, 2.0, 50.0)
      .dc_ratio(10.0)
      .avg_sigma(400.0)
      .loads({0.2, 0.5, 0.8})
      .algorithms({"EDF-OPR-MN", "EDF-DLT", "EDF-UserSplit"})
      .runs(2)
      .sim_time(60000.0)
      .seed(991)
      .build();
}

Campaign tiny_campaign() {
  return Campaign({FigureBuilder("fig_a", "figure a").panel(tiny_sweep_a()).build(),
                   FigureBuilder("fig_b", "figure b").panel(tiny_sweep_b()).build()});
}

std::string temp_dir(const std::string& name) {
  const auto dir = std::filesystem::temp_directory_path() / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

std::string slurp(const std::string& path) {
  std::ifstream file(path);
  EXPECT_TRUE(file.good()) << path;
  std::ostringstream text;
  text << file.rdbuf();
  return text.str();
}

// --- spec serialization ----------------------------------------------------

TEST(SpecIo, SweepRoundTripPreservesEveryField) {
  SweepSpec spec = tiny_sweep_b();
  spec.release_policy = sim::ReleasePolicy::kActual;
  spec.shared_link = true;
  spec.output_ratio = 0.05;
  spec.halt_on_theorem4 = false;
  spec.confidence = 0.99;
  spec.seed = 0xDEADBEEFCAFE1234ull;  // needs all 64 bits
  spec.het_profile = "lognormal:0.4,7";

  const std::string text = serialize_sweep(spec);
  const std::vector<FigureSpec> parsed = parse_campaign(text);
  ASSERT_EQ(parsed.size(), 1u);  // top-level sweep becomes its own figure
  ASSERT_EQ(parsed[0].panels.size(), 1u);
  const SweepSpec& back = parsed[0].panels[0];

  EXPECT_EQ(back.id, spec.id);
  EXPECT_EQ(back.title, spec.title);
  EXPECT_EQ(back.cluster.node_count, spec.cluster.node_count);
  EXPECT_EQ(back.cluster.cms, spec.cluster.cms);
  EXPECT_EQ(back.cluster.cps, spec.cluster.cps);
  EXPECT_EQ(back.avg_sigma, spec.avg_sigma);
  EXPECT_EQ(back.dc_ratio, spec.dc_ratio);
  EXPECT_EQ(back.loads, spec.loads);
  EXPECT_EQ(back.algorithms, spec.algorithms);
  EXPECT_EQ(back.runs, spec.runs);
  EXPECT_EQ(back.sim_time, spec.sim_time);
  EXPECT_EQ(back.seed, spec.seed);
  EXPECT_EQ(back.confidence, spec.confidence);
  EXPECT_EQ(back.release_policy, spec.release_policy);
  EXPECT_EQ(back.shared_link, spec.shared_link);
  EXPECT_EQ(back.output_ratio, spec.output_ratio);
  EXPECT_EQ(back.halt_on_theorem4, spec.halt_on_theorem4);
  EXPECT_EQ(back.expected_winner, spec.expected_winner);
  EXPECT_EQ(back.het_profile, spec.het_profile);

  // A homogeneous spec serializes without the het_profile key at all, so
  // pre-heterogeneity spec files stay byte-stable.
  EXPECT_EQ(serialize_sweep(tiny_sweep_b()).find("het_profile"), std::string::npos);
}

TEST(SpecIo, CampaignRoundTripIsTextuallyStable) {
  // parse(serialize(x)) then serialize again: identical text, so plans can
  // be regenerated and diffed without churn.
  const std::vector<FigureSpec> figures = tiny_campaign().figures();
  const std::string text = serialize_campaign(figures);
  const std::string again = serialize_campaign(parse_campaign(text));
  EXPECT_EQ(text, again);
}

TEST(SpecIo, PaperFiguresSurviveRoundTrip) {
  // The whole registry inventory is serializable: parse → serialize is a
  // fixed point for every paper figure and ablation.
  Scale scale;
  scale.runs = 2;
  scale.sim_time = 60000.0;
  const std::string text = serialize_campaign(all_figures(scale));
  EXPECT_EQ(text, serialize_campaign(parse_campaign(text)));
}

TEST(SpecIo, UseReferencesResolveThroughRegistry) {
  Scale scale;
  scale.runs = 2;
  scale.sim_time = 60000.0;
  const auto resolver = [&scale](const std::string& id) { return find_figure(id, scale); };
  const auto figures = parse_campaign("[figure]\nuse = fig05\n", resolver);
  ASSERT_EQ(figures.size(), 1u);
  EXPECT_EQ(figures[0].id, "fig05");
  EXPECT_EQ(figures[0].panels.size(), 2u);
  EXPECT_EQ(figures[0].panels[0].runs, 2u);
}

TEST(SpecIo, ParseErrorsAreLoud) {
  EXPECT_THROW(parse_campaign("[sweep]\nid = x\nbogus_key = 1\n"), std::invalid_argument);
  EXPECT_THROW(parse_campaign("id = orphan\n"), std::invalid_argument);
  EXPECT_THROW(parse_campaign("[sweep]\ntitle = missing id\n"), std::invalid_argument);
  EXPECT_THROW(parse_campaign("[figure]\nid = empty_figure\n"), std::invalid_argument);
  EXPECT_THROW(parse_campaign("[sweep]\nid = x\nloads = 0.1, zebra\n"), std::invalid_argument);
  EXPECT_THROW(parse_campaign("[sweep]\nid = x\nrelease = sometimes\n"), std::invalid_argument);
  // `use` without a resolver cannot be honored.
  EXPECT_THROW(parse_campaign("[figure]\nuse = fig03\n"), std::invalid_argument);
  // `use` mixed with panels is ambiguous.
  EXPECT_THROW(parse_campaign("[figure]\nid = f\nuse = fig03\n",
                              [](const std::string&) { return FigureSpec{}; }),
               std::invalid_argument);
  // parse_double accepts "inf" and "nan"; an infinite horizon or load would
  // never finish generating, so a spec rejects them with its line number.
  const std::string sweep = "[sweep]\nid = x\nalgorithms = EDF-DLT\n";
  EXPECT_EQ(parse_campaign(sweep + "loads = 0.5\nsim_time = 1000\n").size(), 1u);
  EXPECT_THROW(parse_campaign(sweep + "loads = 0.5\nsim_time = inf\n"), std::invalid_argument);
  EXPECT_THROW(parse_campaign(sweep + "loads = 0.5, inf\n"), std::invalid_argument);
  EXPECT_THROW(parse_campaign(sweep + "loads = nan\n"), std::invalid_argument);
  // A [sweep] under a `use` figure must fail loudly, not silently vanish.
  EXPECT_THROW(parse_campaign("[figure]\nuse = fig03\n[sweep]\nid = extra\nloads = 0.5\n"
                              "algorithms = EDF-DLT\n",
                              [](const std::string&) { return FigureSpec{}; }),
               std::invalid_argument);
}

TEST(SpecIo, BuilderValidates) {
  EXPECT_THROW(SweepBuilder("x").build(), std::invalid_argument);  // no loads
  EXPECT_THROW(SweepBuilder("x").loads({0.5}).build(), std::invalid_argument);
  EXPECT_THROW(
      SweepBuilder("x").loads({0.5}).algorithms({"EDF-DLT"}).runs(0).build(),
      std::invalid_argument);
  EXPECT_THROW(FigureBuilder("f", "t").build(), std::invalid_argument);  // no panels
  const SweepSpec ok = SweepBuilder("x").loads({0.5}).algorithms({"EDF-DLT"}).build();
  EXPECT_EQ(ok.loads.size(), 1u);
}

// --- the cell queue --------------------------------------------------------

TEST(Campaign, CellDecodeRoundTrip) {
  const Campaign campaign = tiny_campaign();
  // 2 loads x 2 runs x 2 algs + 3 loads x 2 runs x 3 algs = 8 + 18.
  ASSERT_EQ(campaign.cell_count(), 26u);
  ASSERT_EQ(campaign.sweeps().size(), 2u);
  EXPECT_EQ(campaign.sweep_offset(1), 8u);

  // Every index decodes to in-range coordinates, cell order matches the
  // classic run_sweep order ((load * runs + run) * algs + alg), and indices
  // are unique.
  for (std::size_t i = 0; i < campaign.cell_count(); ++i) {
    const CellRef ref = campaign.cell(i);
    EXPECT_EQ(ref.index, i);
    const SweepSpec& spec = campaign.sweeps()[ref.sweep];
    EXPECT_LT(ref.load, spec.loads.size());
    EXPECT_LT(ref.run, spec.runs);
    EXPECT_LT(ref.algorithm, spec.algorithms.size());
    const std::size_t local =
        (ref.load * spec.runs + ref.run) * spec.algorithms.size() + ref.algorithm;
    EXPECT_EQ(campaign.sweep_offset(ref.sweep) + local, i);
  }
  EXPECT_THROW(campaign.cell(26), std::out_of_range);
}

TEST(Campaign, ValidatesPanels) {
  FigureSpec figure = FigureBuilder("f", "t").panel(tiny_sweep_a()).build();
  figure.panels[0].loads.clear();
  EXPECT_THROW(Campaign({figure}), std::invalid_argument);
  figure = FigureBuilder("f", "t").panel(tiny_sweep_a()).build();
  figure.panels[0].algorithms.clear();
  EXPECT_THROW(Campaign({figure}), std::invalid_argument);
  figure = FigureBuilder("f", "t").panel(tiny_sweep_a()).build();
  figure.panels[0].runs = 0;
  EXPECT_THROW(Campaign({figure}), std::invalid_argument);
}

TEST(Campaign, ProgressCallbackCoversEveryCell) {
  const Campaign campaign = tiny_campaign();
  util::ThreadPool pool(2);
  CampaignOptions options;
  options.pool = &pool;
  std::vector<std::size_t> seen(campaign.cell_count(), 0);
  std::size_t calls = 0;
  std::size_t last_done = 0;
  options.progress = [&](const CellRef& ref, std::size_t done, std::size_t total) {
    EXPECT_EQ(total, 26u);
    ++seen[ref.index];  // serialized: no lock needed
    ++calls;
    last_done = done;
  };
  AggregateSink sink(campaign);
  run_campaign(campaign, options, sink);
  EXPECT_EQ(calls, 26u);
  EXPECT_EQ(last_done, 26u);
  for (std::size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], 1u) << "cell " << i;
}

// --- determinism: a pooled run reproduces the serial run and run_sweep -----

/// Runs the whole campaign into an AggregateSink, on `pool` or serially.
std::vector<SweepResult> run_whole(const Campaign& campaign, util::ThreadPool* pool) {
  CampaignOptions options;
  options.pool = pool;
  AggregateSink sink(campaign);
  run_campaign(campaign, options, sink);
  return sink.take();
}

/// Raw samples, confidence intervals and final CSV bytes are identical.
void expect_identical(const SweepResult& want, const SweepResult& got, const std::string& dir) {
  ASSERT_EQ(got.curves.size(), want.curves.size());
  for (std::size_t a = 0; a < want.curves.size(); ++a) {
    EXPECT_EQ(got.curves[a].algorithm, want.curves[a].algorithm);
    for (std::size_t m = 0; m < kSweepMetricCount; ++m) {
      const MetricSeries& ws = want.curves[a].metrics[m];
      const MetricSeries& gs = got.curves[a].metrics[m];
      ASSERT_EQ(gs.raw.size(), ws.raw.size());
      for (std::size_t i = 0; i < ws.raw.size(); ++i) EXPECT_EQ(gs.raw[i], ws.raw[i]);
      ASSERT_EQ(gs.per_load.size(), ws.per_load.size());
      for (std::size_t l = 0; l < ws.per_load.size(); ++l) {
        EXPECT_EQ(gs.per_load[l].mean, ws.per_load[l].mean);
        EXPECT_EQ(gs.per_load[l].half_width, ws.per_load[l].half_width);
      }
    }
  }
  EXPECT_EQ(slurp(write_sweep_csv(dir + "/got", got)),
            slurp(write_sweep_csv(dir + "/want", want)));
}

TEST(Campaign, PooledRunReproducesSerialRunBitForBit) {
  const std::string dir = temp_dir("rtdls_campaign_pooled");
  const Campaign campaign = tiny_campaign();

  // Reference: the classic public API, one sweep at a time, with a pool.
  util::ThreadPool pool(4);
  const SweepResult ref[] = {run_sweep(tiny_sweep_a(), &pool), run_sweep(tiny_sweep_b(), &pool)};

  // The same cells in one queue: serially, then on four threads.
  const std::vector<SweepResult> serial = run_whole(campaign, nullptr);
  const std::vector<SweepResult> pooled = run_whole(campaign, &pool);
  ASSERT_EQ(serial.size(), 2u);
  ASSERT_EQ(pooled.size(), 2u);
  for (std::size_t s = 0; s < 2; ++s) {
    SCOPED_TRACE("sweep " + std::to_string(s));
    expect_identical(ref[s], serial[s], dir);
    expect_identical(serial[s], pooled[s], dir);
  }
  std::filesystem::remove_all(dir);
}

TEST(Campaign, HetFigurePooledRunMatchesSerialByteIdentically) {
  // The registry's heterogeneity figures run through the same cell queue:
  // a pooled het campaign must match the serial run byte for byte
  // (acceptance gate of the speed-profile subsystem).
  const std::string dir = temp_dir("rtdls_campaign_het");
  Scale scale;
  scale.runs = 2;
  scale.sim_time = 30000.0;
  FigureSpec figure = find_figure("het_cv", scale);
  FigureSpec mix = find_figure("het_mix", scale);
  for (FigureSpec* f : {&figure, &mix}) {
    for (SweepSpec& panel : f->panels) {
      panel.loads = {0.4, 1.0};  // trimmed axis keeps the test fast
      EXPECT_FALSE(panel.het_profile.empty());
      EXPECT_TRUE(panel.materialized_cluster().heterogeneous());
    }
  }
  const Campaign campaign({figure, mix});
  util::ThreadPool pool(4);

  const std::vector<SweepResult> want = run_whole(campaign, nullptr);
  const std::vector<SweepResult> got = run_whole(campaign, &pool);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t s = 0; s < want.size(); ++s) {
    SCOPED_TRACE(want[s].spec.id);
    expect_identical(want[s], got[s], dir);
    // A heterogeneous cluster is genuinely lossier or busier than nothing:
    // the sweep must have simulated real work.
    EXPECT_GT(series_mean(got[s].curves[0].series(SweepMetric::kUtilization)), 0.0);
  }
  std::filesystem::remove_all(dir);
}

TEST(Campaign, RunSweepsMatchesPerSweepRuns) {
  // The multi-sweep campaign path (one interleaved cell queue) returns the
  // same numbers as independent per-sweep runs.
  const std::vector<SweepResult> together = run_sweeps({tiny_sweep_a(), tiny_sweep_b()});
  const SweepResult alone_a = run_sweep(tiny_sweep_a());
  ASSERT_EQ(together.size(), 2u);
  for (std::size_t m = 0; m < kSweepMetricCount; ++m) {
    const MetricSeries& ts = together[0].curves[1].metrics[m];
    const MetricSeries& as = alone_a.curves[1].metrics[m];
    for (std::size_t i = 0; i < as.raw.size(); ++i) EXPECT_EQ(ts.raw[i], as.raw[i]);
  }
}

// --- failed cells -----------------------------------------------------------

/// A campaign whose second algorithm cannot be constructed: every one of its
/// cells fails deterministically at slot acquisition, the healthy cells
/// complete normally.
Campaign flaky_campaign() {
  SweepSpec spec = tiny_sweep_a();
  spec.algorithms = {"EDF-DLT", "NO-SUCH-ALGORITHM"};
  return Campaign({FigureBuilder("flaky", "flaky").panel(spec).build()});
}

TEST(Campaign, FailedCellsAreRecordedInsteadOfAborting) {
  const Campaign campaign = flaky_campaign();
  const SweepSpec& spec = campaign.sweeps()[0];
  const std::size_t cells_per_algorithm = spec.loads.size() * spec.runs;

  // Fail-fast default: a failing cell aborts the run (options.failed unset).
  {
    AggregateSink sink(campaign);
    EXPECT_THROW(run_campaign(campaign, CampaignOptions{}, sink), std::invalid_argument);
  }

  // Tolerant: every bad cell is recorded and the run completes; the healthy
  // algorithm's cells all stream through, and progress still counts every
  // cell, failed ones included.
  std::vector<FailedCell> failed;
  struct CountingSink : ResultSink {
    std::atomic<std::size_t> consumed{0};  // consume() runs on pool workers
    void consume(const Campaign&, const CellResult&) override { ++consumed; }
  } sink;
  util::ThreadPool pool(2);
  CampaignOptions options;
  options.pool = &pool;
  options.failed = &failed;
  std::size_t progress_calls = 0;
  options.progress = [&](const CellRef&, std::size_t, std::size_t) { ++progress_calls; };
  run_campaign(campaign, options, sink);

  EXPECT_EQ(sink.consumed.load(), cells_per_algorithm);
  EXPECT_EQ(progress_calls, campaign.cell_count());
  ASSERT_EQ(failed.size(), cells_per_algorithm);
  for (std::size_t i = 0; i < failed.size(); ++i) {
    EXPECT_NE(failed[i].error.find("NO-SUCH-ALGORITHM"), std::string::npos) << failed[i].error;
    if (i > 0) {
      EXPECT_LT(failed[i - 1].index, failed[i].index);  // canonical order
    }
    // Every failed cell belongs to the broken algorithm.
    EXPECT_EQ(campaign.cell(failed[i].index).algorithm, 1u);
  }
}

// --- registry lookups ------------------------------------------------------

TEST(Campaign, RegistryLookupMatchesInventory) {
  Scale scale;
  scale.runs = 2;
  scale.sim_time = 60000.0;
  const std::vector<std::string> ids = figure_ids();
  ASSERT_EQ(ids.size(), 21u);  // figures 3-16 + 5 ablations + 2 het sweeps
  const std::vector<FigureSpec> figures = all_figures(scale);
  ASSERT_EQ(figures.size(), ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(figures[i].id, ids[i]);
    const FigureSpec found = find_figure(ids[i], scale);
    EXPECT_EQ(found.id, ids[i]);
    EXPECT_EQ(found.panels.size(), figures[i].panels.size());
  }
  EXPECT_EQ(paper_figures(scale).size(), 14u);
  EXPECT_THROW(find_figure("fig99", scale), std::invalid_argument);
}

TEST(Campaign, WholePaperPlanFlattens) {
  // The headline use case: every paper figure plus every ablation in one
  // queue.
  Scale scale;
  scale.runs = 2;
  scale.sim_time = 60000.0;
  const Campaign campaign(all_figures(scale));
  EXPECT_GT(campaign.cell_count(), 1000u);
}

}  // namespace
}  // namespace rtdls::exp
