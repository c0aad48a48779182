// The three benchmark workloads. Each fills `report` with its end-to-end
// metrics (untraced run) or its per-layer metrics (traced run), counts the
// operations it attempted and the ones that failed, and records every
// failed correctness check.
#pragma once

#include "common.hpp"

namespace perfbench {

/// The registered figure campaign, run on one thread (exp layer).
void run_figure_suite(const Options& options, Report& report);

/// A seeded heterogeneous N=4096 trace streamed through EDF-DLT.
void run_replay_large(const Options& options, Report& report);

/// An in-process admission daemon driven closed-loop over its socket.
void run_daemon_admit(const Options& options, Report& report);

}  // namespace perfbench
