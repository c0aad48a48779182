// Self-test of the harness's order statistics against known samples.
// Exit status 0 when every check holds.
#include <cstdio>
#include <numeric>
#include <optional>
#include <vector>

#include "common.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "selftest: FAILED: %s\n", what);
  }
}

std::vector<double> one_to(std::size_t n) {
  std::vector<double> values(n);
  std::iota(values.begin(), values.end(), 1.0);
  // Reverse so the routine has to sort.
  return std::vector<double>(values.rbegin(), values.rend());
}

}  // namespace

int main() {
  using perfbench::median;
  using perfbench::percentile;

  std::vector<double> hundred = one_to(100);
  expect(percentile(hundred, 50) == 50.0, "p50 of 1..100 is the 50th value");
  expect(percentile(hundred, 90) == 90.0, "p90 of 1..100 is the 90th value (10 beyond)");
  expect(!percentile(hundred, 99).has_value(), "p99 of 1..100 is refused (1 beyond)");
  expect(percentile(hundred, 99, 0) == 99.0, "p99 of 1..100 without the tail rule");
  expect(percentile(hundred, 100, 0) == 100.0, "p100 is the maximum");

  std::vector<double> thousand = one_to(1000);
  expect(percentile(thousand, 99) == 990.0, "p99 of 1..1000 is the 990th value");
  expect(!percentile(thousand, 99.9).has_value(), "p99.9 of 1..1000 is refused");

  std::vector<double> odd{5.0, 1.0, 4.0, 2.0, 3.0};
  expect(percentile(odd, 50, 0) == 3.0, "p50 of five values is the third");
  expect(percentile(odd, 1, 0) == 1.0, "p1 is the minimum");

  std::vector<double> empty;
  expect(!percentile(empty, 50, 0).has_value(), "no percentile of an empty sample");

  perfbench::BestTimes best(3);
  best.offer(0, 5.0);
  best.offer(0, 3.0);
  best.offer(0, 4.0);
  best.offer(1, 2.0);
  expect(best.values()[0] == 3.0, "best time is the smallest offered");
  expect(best.values()[1] == 2.0, "one offer is its own best");
  expect(best.values()[2] == perfbench::BestTimes::kMissing, "never offered is missing");

  expect(median({4.0, 1.0, 3.0, 2.0}) == 2.5, "even median averages the middle two");
  expect(median({7.0}) == 7.0, "median of one value");
  expect(median({}) == 0.0, "median of nothing is 0");

  if (failures == 0) std::printf("selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
