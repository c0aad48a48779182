// Tiny declarative command-line parser used by the example applications.
//
// Supports `--name value`, `--name=value` and boolean `--flag` options plus
// positional arguments. Unknown options and malformed numbers are reported
// as errors so typos in experiment sweeps fail loudly rather than silently
// using defaults.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace rtdls::util {

/// Declarative description of one command-line option.
struct CliOption {
  std::string name;         ///< long name without the leading "--"
  std::string help;         ///< one-line description for usage output
  std::string default_value;  ///< rendered in usage; empty means required-less
  bool is_flag = false;     ///< true: presence sets value "1"
};

/// Result of parsing argv against a set of CliOptions.
class CliParser {
 public:
  /// Registers an option. Call before parse().
  void add_option(CliOption option);

  /// Parses argv; returns false and records an error message on failure.
  bool parse(int argc, const char* const* argv);

  /// Value of an option (default if not given on the command line).
  std::optional<std::string> get(const std::string& name) const;

  /// Numeric accessors: `fallback` when the option is unset and has no
  /// default; std::invalid_argument naming the option and its text when
  /// the value does not parse.
  double get_double(const std::string& name, double fallback) const;
  long long get_int(const std::string& name, long long fallback) const;
  /// Full-width unsigned accessor: 64-bit values (RNG seeds) survive the
  /// round trip that get_int's signed cast would truncate.
  std::uint64_t get_uint64(const std::string& name, std::uint64_t fallback) const;
  bool get_flag(const std::string& name) const;

  /// Positional (non-option) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Error from the last parse() call, empty on success.
  const std::string& error() const { return error_; }

  /// Renders a usage/help string.
  std::string usage(const std::string& program) const;

 private:
  std::vector<CliOption> options_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
  std::string error_;
};

}  // namespace rtdls::util
