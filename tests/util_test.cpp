// Unit tests for src/util: strings, env, csv, cli, ascii plotting, logging.
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>

#include "util/ascii_plot.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/env.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

namespace rtdls::util {
namespace {

// --- strings ---------------------------------------------------------------

TEST(Strings, ToLower) {
  EXPECT_EQ(to_lower("EDF-DLT"), "edf-dlt");
  EXPECT_EQ(to_lower(""), "");
  EXPECT_EQ(to_lower("already lower 123"), "already lower 123");
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim("x"), "x");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("\t a b \n"), "a b");
}

TEST(Strings, SplitKeepsEmptyFields) {
  const auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(Strings, SplitSingleField) {
  const auto parts = split("alone", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "alone");
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(starts_with("EDF-DLT", "EDF-"));
  EXPECT_FALSE(starts_with("EDF", "EDF-"));
  EXPECT_TRUE(starts_with("x", ""));
}

TEST(Strings, FormatDouble) {
  EXPECT_EQ(format_double(0.25), "0.25");
  EXPECT_EQ(format_double(1.0), "1");
  EXPECT_EQ(format_double(0.121, 3), "0.121");
}

TEST(Strings, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"solo"}, ","), "solo");
}

TEST(Strings, ParseDouble) {
  double v = 0.0;
  EXPECT_TRUE(parse_double("3.5", v));
  EXPECT_DOUBLE_EQ(v, 3.5);
  EXPECT_TRUE(parse_double("  -2e3 ", v));
  EXPECT_DOUBLE_EQ(v, -2000.0);
  EXPECT_FALSE(parse_double("abc", v));
  EXPECT_FALSE(parse_double("1.5x", v));
  EXPECT_FALSE(parse_double("", v));
}

TEST(Strings, ParseU64) {
  unsigned long long v = 0;
  EXPECT_TRUE(parse_u64("42", v));
  EXPECT_EQ(v, 42ull);
  EXPECT_FALSE(parse_u64("-1", v));
  EXPECT_FALSE(parse_u64("1.5", v));
  EXPECT_FALSE(parse_u64("", v));
}

TEST(Strings, FormatRoundtripIsBitExact) {
  for (double value : {0.1, 1.0 / 3.0, 2'000'000.0, 1e-17, -0.0, 12345.678901234567}) {
    double back = 0.0;
    ASSERT_TRUE(parse_double(format_roundtrip(value), back)) << value;
    EXPECT_EQ(back, value);
  }
}

// --- env ---------------------------------------------------------------------

TEST(Env, ReadsSetVariable) {
  ::setenv("RTDLS_TEST_VAR", "7.5", 1);
  EXPECT_EQ(get_env("RTDLS_TEST_VAR").value(), "7.5");
  EXPECT_DOUBLE_EQ(env_double("RTDLS_TEST_VAR", 1.0), 7.5);
  ::unsetenv("RTDLS_TEST_VAR");
}

TEST(Env, FallbackOnUnsetOrEmpty) {
  ::unsetenv("RTDLS_TEST_VAR");
  EXPECT_FALSE(get_env("RTDLS_TEST_VAR").has_value());
  EXPECT_DOUBLE_EQ(env_double("RTDLS_TEST_VAR", 2.5), 2.5);
  EXPECT_EQ(env_u64("RTDLS_TEST_VAR", 9ull), 9ull);
  ::setenv("RTDLS_TEST_VAR", "", 1);
  EXPECT_FALSE(get_env("RTDLS_TEST_VAR").has_value());
  ::unsetenv("RTDLS_TEST_VAR");
}

TEST(Env, FallbackOnGarbage) {
  ::setenv("RTDLS_TEST_VAR", "not-a-number", 1);
  EXPECT_DOUBLE_EQ(env_double("RTDLS_TEST_VAR", 3.0), 3.0);
  EXPECT_EQ(env_u64("RTDLS_TEST_VAR", 4ull), 4ull);
  ::unsetenv("RTDLS_TEST_VAR");
}

TEST(Env, Flags) {
  for (const char* truthy : {"1", "true", "YES", "On"}) {
    ::setenv("RTDLS_TEST_FLAG", truthy, 1);
    EXPECT_TRUE(env_flag("RTDLS_TEST_FLAG")) << truthy;
  }
  ::setenv("RTDLS_TEST_FLAG", "0", 1);
  EXPECT_FALSE(env_flag("RTDLS_TEST_FLAG"));
  ::unsetenv("RTDLS_TEST_FLAG");
  EXPECT_TRUE(env_flag("RTDLS_TEST_FLAG", true));
}

// --- csv ---------------------------------------------------------------------

TEST(Csv, EscapePlain) { EXPECT_EQ(CsvWriter::escape("abc"), "abc"); }

TEST(Csv, EscapeSpecials) {
  EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(CsvWriter::escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(Csv, WriteAndParseRoundTrip) {
  std::ostringstream out;
  CsvWriter writer(out);
  writer.write_row({"id", "name,with comma", "quote\"d"});
  writer.write_numeric_row({1.5, -2.0, 3.0});
  EXPECT_EQ(writer.rows_written(), 2u);

  const auto rows = parse_csv(out.str());
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][1], "name,with comma");
  EXPECT_EQ(rows[0][2], "quote\"d");
  EXPECT_EQ(rows[1][0], "1.5");
}

TEST(Csv, ParseEmpty) { EXPECT_TRUE(parse_csv("").empty()); }

TEST(Csv, ParseCrLf) {
  const auto rows = parse_csv("a,b\r\nc,d\r\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1][1], "d");
}

TEST(Csv, ParseQuotedNewline) {
  const auto rows = parse_csv("\"a\nb\",c\n");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], "a\nb");
}

TEST(Csv, ParseMissingTrailingNewline) {
  const auto rows = parse_csv("x,y");
  ASSERT_EQ(rows.size(), 1u);
  ASSERT_EQ(rows[0].size(), 2u);
}

// --- cli ---------------------------------------------------------------------

CliParser make_parser() {
  CliParser cli;
  cli.add_option({"load", "system load", "0.5", false});
  cli.add_option({"name", "label", "", false});
  cli.add_option({"verbose", "chatty", "", true});
  return cli;
}

TEST(Cli, Defaults) {
  CliParser cli = make_parser();
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_DOUBLE_EQ(cli.get_double("load", 0.0), 0.5);
  EXPECT_FALSE(cli.get("name").has_value());
  EXPECT_FALSE(cli.get_flag("verbose"));
}

TEST(Cli, SpaceAndEqualsForms) {
  CliParser cli = make_parser();
  const char* argv[] = {"prog", "--load", "0.9", "--name=run1", "--verbose"};
  ASSERT_TRUE(cli.parse(5, argv));
  EXPECT_DOUBLE_EQ(cli.get_double("load", 0.0), 0.9);
  EXPECT_EQ(cli.get("name").value(), "run1");
  EXPECT_TRUE(cli.get_flag("verbose"));
}

TEST(Cli, Positional) {
  CliParser cli = make_parser();
  const char* argv[] = {"prog", "input.csv", "--load", "0.2", "more"};
  ASSERT_TRUE(cli.parse(5, argv));
  ASSERT_EQ(cli.positional().size(), 2u);
  EXPECT_EQ(cli.positional()[0], "input.csv");
}

TEST(Cli, UnknownOptionFails) {
  CliParser cli = make_parser();
  const char* argv[] = {"prog", "--bogus", "1"};
  EXPECT_FALSE(cli.parse(3, argv));
  EXPECT_NE(cli.error().find("bogus"), std::string::npos);
}

TEST(Cli, MissingValueFails) {
  CliParser cli = make_parser();
  const char* argv[] = {"prog", "--load"};
  EXPECT_FALSE(cli.parse(2, argv));
}

TEST(Cli, FlagWithValueFails) {
  CliParser cli = make_parser();
  const char* argv[] = {"prog", "--verbose=1"};
  EXPECT_FALSE(cli.parse(2, argv));
}

TEST(Cli, GetUint64KeepsFullWidth) {
  CliParser cli;
  cli.add_option({"seed", "RNG seed", "42", false});
  // Larger than any signed 32/63-bit value: must survive the round trip.
  const char* argv[] = {"prog", "--seed", "18446744073709551615"};
  ASSERT_TRUE(cli.parse(3, argv));
  EXPECT_EQ(cli.get_uint64("seed", 0), 18446744073709551615ull);
  const char* defaults[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, defaults));
  EXPECT_EQ(cli.get_uint64("seed", 0), 42u);
  cli.add_option({"other", "no default", "", false});
  EXPECT_EQ(cli.get_uint64("other", 7), 7u);
}

/// The invalid_argument text `call` throws; empty when it does not throw.
template <typename Call>
std::string invalid_argument_text(Call call) {
  try {
    call();
  } catch (const std::invalid_argument& error) {
    return error.what();
  }
  return "";
}

TEST(Cli, MalformedNumbersThrowNamingTheOption) {
  // A typo must not silently become the default (`--nodes 1O24` used to run
  // 16 nodes).
  CliParser cli;
  cli.add_option({"nodes", "cluster size", "16", false});
  cli.add_option({"load", "system load", "0.5", false});
  cli.add_option({"seed", "RNG seed", "42", false});
  const char* argv[] = {"prog", "--nodes", "1O24", "--load", "0.9x", "--seed", "-1"};
  ASSERT_TRUE(cli.parse(7, argv));
  const std::string nodes = invalid_argument_text([&] { cli.get_int("nodes", 16); });
  EXPECT_NE(nodes.find("--nodes"), std::string::npos) << nodes;
  EXPECT_NE(nodes.find("1O24"), std::string::npos) << nodes;
  const std::string load = invalid_argument_text([&] { cli.get_double("load", 0.5); });
  EXPECT_NE(load.find("--load"), std::string::npos) << load;
  EXPECT_NE(load.find("0.9x"), std::string::npos) << load;
  const std::string seed = invalid_argument_text([&] { cli.get_uint64("seed", 42); });
  EXPECT_NE(seed.find("--seed"), std::string::npos) << seed;
  EXPECT_NE(seed.find("-1"), std::string::npos) << seed;

  // Options left unset keep their defaults, or the fallback without one.
  const char* defaults[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, defaults));
  EXPECT_EQ(cli.get_int("nodes", 0), 16);
  EXPECT_DOUBLE_EQ(cli.get_double("load", 0.0), 0.5);
  EXPECT_EQ(cli.get_uint64("seed", 0), 42u);
  cli.add_option({"other", "no default", "", false});
  EXPECT_EQ(cli.get_int("other", -3), -3);
}

TEST(Cli, UsageMentionsOptions) {
  CliParser cli = make_parser();
  const std::string usage = cli.usage("prog");
  EXPECT_NE(usage.find("--load"), std::string::npos);
  EXPECT_NE(usage.find("0.5"), std::string::npos);
}

// --- ascii plot ---------------------------------------------------------------

TEST(AsciiPlot, RendersSeriesAndLegend) {
  Series s1{"EDF-DLT", {0.1, 0.5, 1.0}, {0.05, 0.2, 0.4}};
  Series s2{"EDF-OPR-MN", {0.1, 0.5, 1.0}, {0.07, 0.28, 0.45}};
  PlotOptions options;
  options.x_label = "load";
  const std::string chart = ascii_chart({s1, s2}, options);
  EXPECT_NE(chart.find("EDF-DLT"), std::string::npos);
  EXPECT_NE(chart.find("EDF-OPR-MN"), std::string::npos);
  EXPECT_NE(chart.find('*'), std::string::npos);
  EXPECT_NE(chart.find('+'), std::string::npos);
}

TEST(AsciiPlot, EmptyDataSafe) {
  EXPECT_EQ(ascii_chart({}, PlotOptions{}), "(no data)\n");
  Series empty{"none", {}, {}};
  EXPECT_EQ(ascii_chart({empty}, PlotOptions{}), "(no data)\n");
}

TEST(AsciiPlot, ConstantSeriesSafe) {
  Series flat{"flat", {0.0, 1.0}, {0.3, 0.3}};
  EXPECT_FALSE(ascii_chart({flat}, PlotOptions{}).empty());
}

TEST(AsciiPlot, AlignedTable) {
  const std::string table = aligned_table({{"a", "long-header"}, {"wide-cell", "b"}});
  const auto lines = split(table, '\n');
  ASSERT_GE(lines.size(), 2u);
  // Columns align: "long-header" and "b" start at the same offset.
  EXPECT_EQ(lines[0].find("long-header"), lines[1].find("b"));
}

// --- log ------------------------------------------------------------------------

TEST(Log, LevelNamesRoundTrip) {
  EXPECT_EQ(log_level_name(LogLevel::kInfo), "info");
  EXPECT_EQ(parse_log_level("WARN"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("off"), LogLevel::kOff);
  EXPECT_EQ(parse_log_level("???"), LogLevel::kInfo);
}

TEST(Log, EnabledRespectsLevel) {
  Logger& logger = Logger::instance();
  const LogLevel original = logger.level();
  logger.set_level(LogLevel::kError);
  EXPECT_FALSE(logger.enabled(LogLevel::kDebug));
  EXPECT_TRUE(logger.enabled(LogLevel::kError));
  logger.set_level(original);
}

}  // namespace
}  // namespace rtdls::util
