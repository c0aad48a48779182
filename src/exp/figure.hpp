// Figures group sweeps (panels) and attach shape checks: the reproduction
// targets are the paper's *qualitative* claims (who wins, how the gap moves
// with each parameter), which the harness verifies automatically.
#pragma once

#include <string>
#include <vector>

#include "exp/runner.hpp"
#include "exp/spec.hpp"

namespace rtdls::exp {

/// One paper figure: several panels sharing a theme.
struct FigureSpec {
  std::string id;     ///< "fig03", "fig08", ...
  std::string title;  ///< paper caption
  std::vector<SweepSpec> panels;
};

/// Outcome of one shape check.
struct ShapeCheck {
  std::string description;
  bool passed = false;
  std::string detail;
};

/// A fully executed figure.
struct FigureResult {
  FigureSpec spec;
  std::vector<SweepResult> panels;
  std::vector<ShapeCheck> checks;
};

/// Evaluates the per-panel winner expectations against already-executed
/// panel results - shared by run_figure and the campaign CLI, so a
/// multi-figure campaign gets the same PASS/WARN verdicts as one figure.
std::vector<ShapeCheck> evaluate_checks(const std::vector<SweepResult>& panels);

/// Runs all panels and evaluates the winner expectation per panel.
FigureResult run_figure(const FigureSpec& spec, util::ThreadPool* pool = nullptr);

/// Convenience driver for the bench binaries: runs the figure, prints every
/// panel (table + chart), writes CSVs under results_dir(), prints the shape
/// checks. Returns the number of failed checks (callers report but exit 0:
/// reduced-scale noise must not break `for b in bench/*; do $b; done`).
int report_figure(const FigureSpec& spec);

/// Mean reject ratio of a curve across the load axis.
double curve_mean(const CurveResult& curve);

}  // namespace rtdls::exp
