// Text serialization of experiment plans: SweepSpec / FigureSpec round-trip
// through a key=value spec-file format, so campaigns are data that can be
// versioned, diffed and run with `rtdls_cli campaign run --spec` instead of
// hard-coded C++.
//
// Format: '#' comments, blank lines ignored, `[figure]` / `[sweep]` section
// headers, `key = value` lines. A `[sweep]` section belongs to the most
// recent `[figure]`; sweeps before any figure each become their own
// single-panel figure. `use = <figure-id>` inside a `[figure]` section pulls
// a figure from the registry inventory via the caller-supplied resolver:
//
//   [figure]
//   use = fig03
//
//   [figure]
//   id = custom
//   title = my experiment
//   [sweep]
//   id = custom_a
//   loads = 0.3, 0.6, 0.9
//   algorithms = EDF-OPR-MN, EDF-DLT
//   ...
//
// Doubles are written with format_roundtrip, so parse(serialize(x)) is
// bit-exact and serialize(parse(serialize(x))) == serialize(x).
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "exp/figure.hpp"

namespace rtdls::exp {

/// Serializes one sweep as a `[sweep]` section.
std::string serialize_sweep(const SweepSpec& spec);

/// Serializes one figure: a `[figure]` section plus its panels.
std::string serialize_figure(const FigureSpec& spec);

/// Serializes a whole campaign (any list of figures).
std::string serialize_campaign(const std::vector<FigureSpec>& figures);

/// Resolves `use = <id>` references against the figure inventory (typically
/// exp::find_figure bound to a Scale). May throw for unknown ids.
using FigureResolver = std::function<FigureSpec(const std::string& id)>;

/// Parses a campaign spec file. Unknown keys, malformed values, and
/// `use = ...` without a resolver all throw std::invalid_argument with the
/// offending line number, so typos fail loudly.
std::vector<FigureSpec> parse_campaign(std::string_view text,
                                       const FigureResolver& resolver = nullptr);

/// Fluent construction of one sweep; every setter returns *this so plans
/// read as a single declarative expression. build() validates.
class SweepBuilder {
 public:
  explicit SweepBuilder(std::string id, std::string title = "");

  SweepBuilder& cluster(std::size_t nodes, double cms, double cps);
  /// Per-node speed-profile key (see cluster/speed_profile.hpp); build()
  /// validates it parses against the cluster dimensions.
  SweepBuilder& het_profile(std::string key);
  SweepBuilder& avg_sigma(double value);
  SweepBuilder& dc_ratio(double value);
  SweepBuilder& loads(std::vector<double> values);
  SweepBuilder& algorithms(std::vector<std::string> names);
  SweepBuilder& runs(std::size_t count);
  SweepBuilder& sim_time(Time horizon);
  SweepBuilder& seed(std::uint64_t value);
  SweepBuilder& confidence(double level);
  SweepBuilder& release(sim::ReleasePolicy policy);
  SweepBuilder& shared_link(bool enabled);
  SweepBuilder& output_ratio(double delta);
  SweepBuilder& halt_on_theorem4(bool enabled);
  SweepBuilder& expected_winner(std::string algorithm);
  SweepBuilder& scale(const Scale& scale);

  /// Returns the spec; throws std::invalid_argument when loads/algorithms
  /// are empty or runs is zero.
  SweepSpec build() const;

 private:
  SweepSpec spec_;
};

/// Fluent construction of one figure from finished panels.
class FigureBuilder {
 public:
  FigureBuilder(std::string id, std::string title);
  FigureBuilder& panel(SweepSpec spec);
  FigureSpec build() const;

 private:
  FigureSpec spec_;
};

}  // namespace rtdls::exp
