// Anchored floating-point comparators: the only place in the tree where
// epsilon tolerances may appear.
//
// Every correctness argument in this reproduction - bit-identical
// incremental sessions, lane-exact SIMD kernels, byte-identical
// snapshot/restore - depends on float comparisons being *anchored*: a
// tolerance is applied once, against a named constant, in a fixed
// expression shape, so two call sites asking the same question get the
// same answer bit for bit. The PR 3 calendar-dedupe bug was exactly the
// alternative: |a-b| <= eps handed to std::unique is not transitive, and
// which duplicates survive then depends on the traversal order.
//
// `rtdls-no-raw-float-compare` (tools/verify) mechanically enforces the
// contract: raw epsilon literals in comparison expressions, ==/!= against
// float literals, and epsilon-named constants in comparisons are all
// rejected outside this header. Call sites go through the helpers below.
//
// Bit-identity contract: each helper documents its exact expression shape.
// Migrating a call site is only legal when the replacement evaluates the
// *same* expression (same operand order, same rounding) as the raw form it
// replaces; the cross-check-armed property tests assert schedules did not
// move.
#pragma once

#include <cmath>

namespace rtdls::fp {

/// Absolute slack on simulated-time comparisons (deadline checks,
/// availability ordering, calendar interval arithmetic). The paper-scale
/// magnitudes (times ~1e0..1e6) keep 1e-9 far above representation noise
/// and far below any real schedule gap.
inline constexpr double kTimeTolerance = 1e-9;

/// Relative slack for "accept n-1 nodes" style nudges (dlt/nmin) and the
/// alpha upper-bound check: quantities normalized to ~1.0 where one or two
/// ulps of accumulated error are expected, nothing more.
inline constexpr double kRelSlack = 1e-12;

/// Slack of the simulator's two promise checks, its only uses: an actual
/// completion past the Theorem-4 estimate, or past the deadline, by more
/// than this counts as a violation or a miss. No schedule decision reads
/// it. It is absolute, so it stops covering rounding at large clocks: one
/// ulp of a time in [2^32, 2^33) is 9.5e-7, and from 2^33 on one ulp
/// exceeds it.
inline constexpr double kEventTolerance = 1e-6;

/// Convergence threshold for the continued-fraction evaluation in
/// stats/student_t (Lentz's algorithm): iterate until the per-step factor
/// is within this of 1.0.
inline constexpr double kConvergenceEps = 3.0e-14;

/// a is beyond b by more than tol. Exactly `a > b + tol`: the canonical
/// deadline-miss test `est > deadline + kTimeTolerance`.
constexpr bool after(double a, double b, double tol = kTimeTolerance) {
  return a > b + tol;
}

/// a falls short of b by more than tol. Exactly `a + tol < b`: the
/// canonical "reservation starts before the node is free" test.
constexpr bool before(double a, double b, double tol = kTimeTolerance) {
  return a + tol < b;
}

/// a is at-or-after b, tolerating tol of undershoot. Exactly `a >= b - tol`.
constexpr bool at_or_after(double a, double b, double tol = kTimeTolerance) {
  return a >= b - tol;
}

/// a is at-or-before b, tolerating tol of overshoot. Exactly `a <= b + tol`.
constexpr bool at_or_before(double a, double b, double tol = kTimeTolerance) {
  return a <= b + tol;
}

/// |a - b| <= tol. NOT transitive: only legal when one side is a fixed
/// anchor (a named constant, or the surviving representative of a dedupe
/// run as in NodeCalendar::candidate_times), never as an equivalence
/// relation over a chain of values.
inline bool near(double a, double b, double tol = kTimeTolerance) {
  return std::fabs(a - b) <= tol;
}

/// |a - b| < tol, strict. Companion of near() for convergence loops whose
/// historical shape used `<` (stats/student_t); the same anchoring rules
/// apply, and migrations must not relax `<` to `<=`.
inline bool near_strict(double a, double b, double tol) {
  return std::fabs(a - b) < tol;
}

/// a <= b within kRelSlack relative. Exactly `a <= b * (1.0 + kRelSlack)`:
/// the n_min "accept n-1" nudge.
constexpr bool le_rel(double a, double b) { return a <= b * (1.0 + kRelSlack); }

/// Deliberate bit-exact equality, typically against a sentinel (0.0 load,
/// unset deadline). Spelling it through this helper records that exactness
/// is intended, which the static check cannot infer from a raw `==`.
constexpr bool exact_eq(double a, double b) { return a == b; }

/// Deliberate bit-exact inequality; see exact_eq.
constexpr bool exact_ne(double a, double b) { return a != b; }

/// x bumped up by a relative rel: exactly `x * (1.0 + rel)`. Used when
/// synthesizing a just-feasible deadline from a minimum cost.
constexpr double rel_above(double x, double rel = kTimeTolerance) {
  return x * (1.0 + rel);
}

}  // namespace rtdls::fp
