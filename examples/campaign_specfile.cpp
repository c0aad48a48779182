// Campaign walkthrough: build an experiment plan with the fluent builders,
// serialize it to a spec file (the shippable artifact), parse it back, run
// the cell queue on a thread pool with a progress callback, run it again
// serially, and verify both give identical results.
//
// `rtdls_cli campaign run --spec file` runs the same spec file from the
// command line (README, "Campaign workflow").
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "exp/campaign.hpp"
#include "exp/report.hpp"
#include "exp/spec_io.hpp"

using namespace rtdls;

int main() {
  // 1. A declarative plan: two tiny panels comparing the paper's EDF pair.
  exp::SweepSpec baseline = exp::SweepBuilder("demo_baseline", "DCRatio = 2")
                                .cluster(16, 1.0, 100.0)
                                .loads({0.3, 0.6, 0.9})
                                .algorithms({"EDF-OPR-MN", "EDF-DLT"})
                                .runs(2)
                                .sim_time(60000.0)
                                .expected_winner("EDF-DLT")
                                .build();
  exp::SweepSpec loose = exp::SweepBuilder("demo_loose", "DCRatio = 10")
                             .cluster(16, 1.0, 100.0)
                             .dc_ratio(10.0)
                             .loads({0.3, 0.6, 0.9})
                             .algorithms({"EDF-OPR-MN", "EDF-DLT"})
                             .runs(2)
                             .sim_time(60000.0)
                             .build();
  const exp::FigureSpec figure = exp::FigureBuilder("demo", "deadline looseness demo")
                                     .panel(std::move(baseline))
                                     .panel(std::move(loose))
                                     .build();

  // 2. Plans are data: write the spec file, read it back.
  const std::string path =
      (std::filesystem::temp_directory_path() / "rtdls_demo_campaign.spec").string();
  std::ofstream(path) << exp::serialize_campaign({figure});
  std::printf("spec file: %s\n", path.c_str());
  std::ostringstream text;
  {
    std::ifstream file(path);
    text << file.rdbuf();
  }
  const exp::Campaign campaign(exp::parse_campaign(text.str()));
  std::printf("parsed: %zu figure(s), %zu sweep(s), %zu cells\n", campaign.figures().size(),
              campaign.sweeps().size(), campaign.cell_count());

  // 3. Run the whole cell queue with live progress.
  util::ThreadPool pool(2);
  exp::CampaignOptions options;
  options.pool = &pool;
  options.progress = [](const exp::CellRef& ref, std::size_t done, std::size_t total) {
    std::printf("  cell %2zu (sweep %zu load %zu run %zu alg %zu) — %zu/%zu\n", ref.index,
                ref.sweep, ref.load, ref.run, ref.algorithm, done, total);
  };
  exp::AggregateSink aggregate(campaign);
  exp::run_campaign(campaign, options, aggregate);
  const std::vector<exp::SweepResult> whole = aggregate.take();

  // 4. The same queue serially: per-cell seeding makes the pool invisible.
  exp::AggregateSink serial_sink(campaign);
  exp::run_campaign(campaign, exp::CampaignOptions{}, serial_sink);
  const std::vector<exp::SweepResult> serial = serial_sink.take();

  bool identical = true;
  for (std::size_t s = 0; s < whole.size(); ++s) {
    for (std::size_t a = 0; a < whole[s].curves.size(); ++a) {
      const auto& want = whole[s].curves[a].series(exp::SweepMetric::kRejectRatio).raw;
      const auto& got = serial[s].curves[a].series(exp::SweepMetric::kRejectRatio).raw;
      if (want != got) identical = false;
    }
  }
  std::printf("serial vs pooled run: %s\n",
              identical ? "bit-identical" : "MISMATCH (bug!)");

  for (const exp::SweepResult& panel : whole) {
    std::fputs(exp::render_sweep(panel).c_str(), stdout);
  }
  return identical ? 0 : 1;
}
