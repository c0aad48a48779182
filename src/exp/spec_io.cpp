#include "exp/spec_io.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "util/strings.hpp"

namespace rtdls::exp {

namespace {

std::string format_loads(const std::vector<double>& loads) {
  std::vector<std::string> parts;
  parts.reserve(loads.size());
  for (double load : loads) parts.push_back(util::format_roundtrip(load));
  return util::join(parts, ", ");
}

void write_sweep(std::ostream& out, const SweepSpec& spec) {
  out << "[sweep]\n";
  out << "id = " << spec.id << '\n';
  out << "title = " << spec.title << '\n';
  out << "nodes = " << spec.cluster.node_count << '\n';
  out << "cms = " << util::format_roundtrip(spec.cluster.cms) << '\n';
  out << "cps = " << util::format_roundtrip(spec.cluster.cps) << '\n';
  // Written only when set, so homogeneous specs serialize byte-identically
  // to their pre-heterogeneity form.
  if (!spec.het_profile.empty()) out << "het_profile = " << spec.het_profile << '\n';
  out << "avg_sigma = " << util::format_roundtrip(spec.avg_sigma) << '\n';
  out << "dc_ratio = " << util::format_roundtrip(spec.dc_ratio) << '\n';
  out << "loads = " << format_loads(spec.loads) << '\n';
  out << "algorithms = " << util::join(spec.algorithms, ", ") << '\n';
  out << "runs = " << spec.runs << '\n';
  out << "sim_time = " << util::format_roundtrip(spec.sim_time) << '\n';
  out << "seed = " << spec.seed << '\n';
  out << "confidence = " << util::format_roundtrip(spec.confidence) << '\n';
  out << "release = "
      << (spec.release_policy == sim::ReleasePolicy::kActual ? "actual" : "estimate") << '\n';
  out << "shared_link = " << (spec.shared_link ? 1 : 0) << '\n';
  out << "output_ratio = " << util::format_roundtrip(spec.output_ratio) << '\n';
  out << "halt_on_theorem4 = " << (spec.halt_on_theorem4 ? 1 : 0) << '\n';
  out << "expected_winner = " << spec.expected_winner << '\n';
}

[[noreturn]] void fail(std::size_t line, const std::string& message) {
  throw std::invalid_argument("spec line " + std::to_string(line) + ": " + message);
}

double parse_double_or_fail(std::size_t line, const std::string& key, std::string_view value) {
  double out = 0.0;
  // parse_double accepts "inf" and "nan"; no spec value may be either.
  if (!util::parse_double(value, out) || !std::isfinite(out)) {
    fail(line, key + ": bad number '" + std::string(value) + "'");
  }
  return out;
}

std::uint64_t parse_u64_or_fail(std::size_t line, const std::string& key, std::string_view value) {
  unsigned long long out = 0;
  if (!util::parse_u64(value, out)) {
    fail(line, key + ": bad integer '" + std::string(value) + "'");
  }
  return out;
}

bool parse_bool_or_fail(std::size_t line, const std::string& key, std::string_view value) {
  const std::string lower = util::to_lower(value);
  if (lower == "1" || lower == "true") return true;
  if (lower == "0" || lower == "false") return false;
  fail(line, key + ": bad boolean '" + std::string(value) + "' (use 0/1)");
}

/// Incremental campaign parse state: at most one open figure and one open
/// sweep at a time; sections close when the next section or EOF arrives.
struct CampaignParser {
  const FigureResolver& resolver;
  std::vector<FigureSpec> figures;

  FigureSpec figure;
  bool in_figure = false;   ///< a [figure] section is open
  bool figure_used = false; ///< the open figure was a `use = id` reference
  SweepSpec sweep;
  bool in_sweep = false;

  explicit CampaignParser(const FigureResolver& r) : resolver(r) {}

  void close_sweep(std::size_t line) {
    if (!in_sweep) return;
    if (in_figure && figure_used) fail(line, "a `use` figure takes no [sweep] panels");
    if (sweep.id.empty()) fail(line, "[sweep] section missing an id");
    if (in_figure) {
      figure.panels.push_back(std::move(sweep));
    } else {
      // Top-level sweep: its own single-panel figure.
      FigureSpec single;
      single.id = sweep.id;
      single.title = sweep.title;
      single.panels.push_back(std::move(sweep));
      figures.push_back(std::move(single));
    }
    sweep = SweepSpec{};
    in_sweep = false;
  }

  void close_figure(std::size_t line) {
    close_sweep(line);
    if (!in_figure) return;
    if (!figure_used) {
      if (figure.id.empty()) fail(line, "[figure] section missing an id");
      if (figure.panels.empty()) fail(line, "figure '" + figure.id + "' has no [sweep] panels");
      figures.push_back(std::move(figure));
    }
    figure = FigureSpec{};
    in_figure = false;
    figure_used = false;
  }

  void figure_key(std::size_t line, const std::string& key, const std::string& value) {
    if (figure_used) fail(line, "a `use` figure takes no other keys");
    if (key == "use") {
      if (!figure.id.empty() || !figure.title.empty() || !figure.panels.empty()) {
        fail(line, "`use` must be the only key of its [figure] section");
      }
      if (!resolver) fail(line, "`use = " + value + "` needs a figure registry resolver");
      figures.push_back(resolver(value));
      figure_used = true;
    } else if (key == "id") {
      figure.id = value;
    } else if (key == "title") {
      figure.title = value;
    } else {
      fail(line, "unknown figure key '" + key + "'");
    }
  }

  void sweep_key(std::size_t line, const std::string& key, const std::string& value) {
    if (key == "id") {
      sweep.id = value;
    } else if (key == "title") {
      sweep.title = value;
    } else if (key == "nodes") {
      sweep.cluster.node_count = static_cast<std::size_t>(parse_u64_or_fail(line, key, value));
    } else if (key == "cms") {
      sweep.cluster.cms = parse_double_or_fail(line, key, value);
    } else if (key == "cps") {
      sweep.cluster.cps = parse_double_or_fail(line, key, value);
    } else if (key == "het_profile") {
      sweep.het_profile = value;
    } else if (key == "avg_sigma") {
      sweep.avg_sigma = parse_double_or_fail(line, key, value);
    } else if (key == "dc_ratio") {
      sweep.dc_ratio = parse_double_or_fail(line, key, value);
    } else if (key == "loads") {
      sweep.loads.clear();
      for (const std::string& part : util::split(value, ',')) {
        sweep.loads.push_back(parse_double_or_fail(line, key, util::trim(part)));
      }
    } else if (key == "algorithms") {
      sweep.algorithms.clear();
      for (const std::string& part : util::split(value, ',')) {
        const std::string name(util::trim(part));
        if (name.empty()) fail(line, "algorithms: empty name");
        sweep.algorithms.push_back(name);
      }
    } else if (key == "runs") {
      sweep.runs = static_cast<std::size_t>(parse_u64_or_fail(line, key, value));
    } else if (key == "sim_time") {
      sweep.sim_time = parse_double_or_fail(line, key, value);
    } else if (key == "seed") {
      sweep.seed = parse_u64_or_fail(line, key, value);
    } else if (key == "confidence") {
      sweep.confidence = parse_double_or_fail(line, key, value);
    } else if (key == "release") {
      const std::string lower = util::to_lower(value);
      if (lower == "estimate") {
        sweep.release_policy = sim::ReleasePolicy::kEstimate;
      } else if (lower == "actual") {
        sweep.release_policy = sim::ReleasePolicy::kActual;
      } else {
        fail(line, "release: expected estimate|actual, got '" + value + "'");
      }
    } else if (key == "shared_link") {
      sweep.shared_link = parse_bool_or_fail(line, key, value);
    } else if (key == "output_ratio") {
      sweep.output_ratio = parse_double_or_fail(line, key, value);
    } else if (key == "halt_on_theorem4") {
      sweep.halt_on_theorem4 = parse_bool_or_fail(line, key, value);
    } else if (key == "expected_winner") {
      sweep.expected_winner = value;
    } else {
      fail(line, "unknown sweep key '" + key + "'");
    }
  }
};

}  // namespace

std::string serialize_sweep(const SweepSpec& spec) {
  std::ostringstream out;
  write_sweep(out, spec);
  return out.str();
}

std::string serialize_figure(const FigureSpec& spec) {
  std::ostringstream out;
  out << "[figure]\n";
  out << "id = " << spec.id << '\n';
  out << "title = " << spec.title << '\n';
  for (const SweepSpec& panel : spec.panels) {
    out << '\n';
    write_sweep(out, panel);
  }
  return out.str();
}

std::string serialize_campaign(const std::vector<FigureSpec>& figures) {
  std::ostringstream out;
  out << "# rtdls campaign spec (key = value; see exp/spec_io.hpp)\n";
  for (const FigureSpec& figure : figures) {
    out << '\n' << serialize_figure(figure);
  }
  return out.str();
}

std::vector<FigureSpec> parse_campaign(std::string_view text, const FigureResolver& resolver) {
  CampaignParser parser(resolver);
  std::size_t line_number = 0;
  for (const std::string& raw : util::split(text, '\n')) {
    ++line_number;
    const std::string_view line = util::trim(raw);
    if (line.empty() || line.front() == '#') continue;
    if (line == "[figure]") {
      parser.close_figure(line_number);
      parser.in_figure = true;
      continue;
    }
    if (line == "[sweep]") {
      parser.close_sweep(line_number);
      parser.in_sweep = true;
      continue;
    }
    if (line.front() == '[') fail(line_number, "unknown section " + std::string(line));
    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      fail(line_number, "expected `key = value`, got '" + std::string(line) + "'");
    }
    const std::string key(util::trim(line.substr(0, eq)));
    const std::string value(util::trim(line.substr(eq + 1)));
    if (parser.in_sweep) {
      parser.sweep_key(line_number, key, value);
    } else if (parser.in_figure) {
      parser.figure_key(line_number, key, value);
    } else {
      fail(line_number, "key '" + key + "' outside a [figure]/[sweep] section");
    }
  }
  parser.close_figure(line_number + 1);
  return parser.figures;
}

SweepBuilder::SweepBuilder(std::string id, std::string title) {
  spec_.id = std::move(id);
  spec_.title = std::move(title);
}

SweepBuilder& SweepBuilder::cluster(std::size_t nodes, double cms, double cps) {
  spec_.cluster.node_count = nodes;
  spec_.cluster.cms = cms;
  spec_.cluster.cps = cps;
  return *this;
}
SweepBuilder& SweepBuilder::het_profile(std::string key) {
  spec_.het_profile = std::move(key);
  return *this;
}
SweepBuilder& SweepBuilder::avg_sigma(double value) { spec_.avg_sigma = value; return *this; }
SweepBuilder& SweepBuilder::dc_ratio(double value) { spec_.dc_ratio = value; return *this; }
SweepBuilder& SweepBuilder::loads(std::vector<double> values) {
  spec_.loads = std::move(values);
  return *this;
}
SweepBuilder& SweepBuilder::algorithms(std::vector<std::string> names) {
  spec_.algorithms = std::move(names);
  return *this;
}
SweepBuilder& SweepBuilder::runs(std::size_t count) { spec_.runs = count; return *this; }
SweepBuilder& SweepBuilder::sim_time(Time horizon) { spec_.sim_time = horizon; return *this; }
SweepBuilder& SweepBuilder::seed(std::uint64_t value) { spec_.seed = value; return *this; }
SweepBuilder& SweepBuilder::confidence(double level) { spec_.confidence = level; return *this; }
SweepBuilder& SweepBuilder::release(sim::ReleasePolicy policy) {
  spec_.release_policy = policy;
  return *this;
}
SweepBuilder& SweepBuilder::shared_link(bool enabled) { spec_.shared_link = enabled; return *this; }
SweepBuilder& SweepBuilder::output_ratio(double delta) { spec_.output_ratio = delta; return *this; }
SweepBuilder& SweepBuilder::halt_on_theorem4(bool enabled) {
  spec_.halt_on_theorem4 = enabled;
  return *this;
}
SweepBuilder& SweepBuilder::expected_winner(std::string algorithm) {
  spec_.expected_winner = std::move(algorithm);
  return *this;
}
SweepBuilder& SweepBuilder::scale(const Scale& scale) {
  spec_.apply(scale);
  return *this;
}

SweepSpec SweepBuilder::build() const {
  if (spec_.id.empty()) throw std::invalid_argument("SweepBuilder: missing id");
  if (spec_.loads.empty()) throw std::invalid_argument("SweepBuilder: no loads");
  if (spec_.algorithms.empty()) throw std::invalid_argument("SweepBuilder: no algorithms");
  if (spec_.runs == 0) throw std::invalid_argument("SweepBuilder: runs must be >= 1");
  spec_.materialized_cluster();  // validates the het_profile key, if any
  return spec_;
}

FigureBuilder::FigureBuilder(std::string id, std::string title) {
  spec_.id = std::move(id);
  spec_.title = std::move(title);
}

FigureBuilder& FigureBuilder::panel(SweepSpec spec) {
  spec_.panels.push_back(std::move(spec));
  return *this;
}

FigureSpec FigureBuilder::build() const {
  if (spec_.id.empty()) throw std::invalid_argument("FigureBuilder: missing id");
  if (spec_.panels.empty()) throw std::invalid_argument("FigureBuilder: no panels");
  return spec_;
}

}  // namespace rtdls::exp
