#include "util/cli.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "util/strings.hpp"

namespace rtdls::util {

void CliParser::add_option(CliOption option) {
  options_.push_back(std::move(option));
}

bool CliParser::parse(int argc, const char* const* argv) {
  values_.clear();
  positional_.clear();
  error_.clear();

  auto find_option = [this](const std::string& name) -> const CliOption* {
    const auto it = std::find_if(options_.begin(), options_.end(),
                                 [&](const CliOption& o) { return o.name == name; });
    return it == options_.end() ? nullptr : &*it;
  };

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!starts_with(arg, "--")) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    std::string name = arg;
    std::optional<std::string> inline_value;
    if (const size_t eq = arg.find('='); eq != std::string::npos) {
      name = arg.substr(0, eq);
      inline_value = arg.substr(eq + 1);
    }
    const CliOption* option = find_option(name);
    if (option == nullptr) {
      error_ = "unknown option --" + name;
      return false;
    }
    if (option->is_flag) {
      if (inline_value) {
        error_ = "flag --" + name + " does not take a value";
        return false;
      }
      // Fill-construct instead of assigning the literal: GCC 12 inlines the
      // literal assign into a char_traits memcpy it then misdiagnoses under
      // -Wrestrict (false positive).
      values_[name] = std::string(1, '1');
      continue;
    }
    if (inline_value) {
      values_[name] = *inline_value;
      continue;
    }
    if (i + 1 >= argc) {
      error_ = "option --" + name + " requires a value";
      return false;
    }
    values_[name] = argv[++i];
  }
  return true;
}

std::optional<std::string> CliParser::get(const std::string& name) const {
  if (const auto it = values_.find(name); it != values_.end()) return it->second;
  const auto option = std::find_if(options_.begin(), options_.end(),
                                   [&](const CliOption& o) { return o.name == name; });
  if (option != options_.end() && !option->default_value.empty()) {
    return option->default_value;
  }
  return std::nullopt;
}

namespace {

[[noreturn]] void bad_value(const std::string& name, const std::string& raw,
                            const char* expected) {
  throw std::invalid_argument("option --" + name + ": expected " + expected + ", got '" +
                              raw + "'");
}

}  // namespace

double CliParser::get_double(const std::string& name, double fallback) const {
  const auto raw = get(name);
  if (!raw) return fallback;
  double value = 0.0;
  if (!parse_double(*raw, value)) bad_value(name, *raw, "a number");
  return value;
}

long long CliParser::get_int(const std::string& name, long long fallback) const {
  return static_cast<long long>(get_uint64(name, static_cast<std::uint64_t>(fallback)));
}

std::uint64_t CliParser::get_uint64(const std::string& name, std::uint64_t fallback) const {
  const auto raw = get(name);
  if (!raw) return fallback;
  unsigned long long value = 0;
  if (!parse_u64(*raw, value)) bad_value(name, *raw, "a non-negative integer");
  return static_cast<std::uint64_t>(value);
}

bool CliParser::get_flag(const std::string& name) const {
  const auto raw = get(name);
  return raw.has_value() && *raw == "1";
}

std::string CliParser::usage(const std::string& program) const {
  std::ostringstream out;
  out << "usage: " << program << " [options]\n";
  for (const CliOption& option : options_) {
    out << "  --" << option.name;
    if (!option.is_flag) out << " <value>";
    out << "  " << option.help;
    if (!option.default_value.empty()) out << " (default: " << option.default_value << ")";
    out << '\n';
  }
  return out.str();
}

}  // namespace rtdls::util
