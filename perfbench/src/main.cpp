// perfbench: the repository's end-to-end benchmark harness.
//
//   perfbench --workload figure_suite|replay_large|daemon_admit --seed N
//             --seconds S --trace 0|1 [--size full|smoke] [--inject-failure]
//
// Prints notes ("# ...") and then, as the last line, the JSON result (see
// common.hpp). Exit status: 0 when every correctness check passed, 1 when
// one failed (the result line is still printed), 2 on a usage or set-up
// error (no result line).
#include <cstdio>
#include <exception>
#include <iostream>

#include "common.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  try {
    options = parse_options(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 2;
  }

  Report report;
  try {
    if (options.workload == "figure_suite") {
      run_figure_suite(options, report);
    } else if (options.workload == "replay_large") {
      run_replay_large(options, report);
    } else if (options.workload == "daemon_admit") {
      run_daemon_admit(options, report);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                   options.workload.c_str());
      return 2;
    }
  } catch (const std::exception& error) {
    remove_scratch_dir();
    std::fprintf(stderr, "perfbench: %s failed: %s\n", options.workload.c_str(),
                 error.what());
    return 2;
  }
  remove_scratch_dir();
  if (report.attempted() == 0) report.fail_check("no operation was attempted");
  std::cout << report.json() << std::endl;
  return report.correct() ? 0 : 1;
}
