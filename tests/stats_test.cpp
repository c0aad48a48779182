// Unit tests for src/stats: streaming moments, Student-t machinery and
// confidence intervals.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "stats/confidence.hpp"
#include "stats/running_stats.hpp"
#include "stats/student_t.hpp"

namespace rtdls::stats {
namespace {

// --- RunningStats -----------------------------------------------------------

TEST(RunningStats, EmptyDefaults) {
  RunningStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
  EXPECT_DOUBLE_EQ(stats.stderror(), 0.0);
}

TEST(RunningStats, KnownMoments) {
  RunningStats stats;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.add(x);
  EXPECT_EQ(stats.count(), 8u);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_NEAR(stats.variance(), 32.0 / 7.0, 1e-12);  // unbiased
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
  EXPECT_DOUBLE_EQ(stats.sum(), 40.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats stats;
  stats.add(3.5);
  EXPECT_DOUBLE_EQ(stats.mean(), 3.5);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  RunningStats all;
  RunningStats a;
  RunningStats b;
  for (int i = 0; i < 100; ++i) {
    const double x = std::sin(i) * 10.0 + i * 0.1;
    all.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-10);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-8);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a;
  a.add(1.0);
  a.add(2.0);
  RunningStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.mean(), 1.5);
}

TEST(RunningStats, NumericallyStableForLargeOffsets) {
  RunningStats stats;
  // Classic catastrophic-cancellation scenario: huge mean, tiny variance.
  for (double x : {1e9 + 4.0, 1e9 + 7.0, 1e9 + 13.0, 1e9 + 16.0}) stats.add(x);
  EXPECT_NEAR(stats.variance(), 30.0, 1e-6);
}

// --- log_gamma / incomplete beta ---------------------------------------------

TEST(StudentT, LogGammaKnownValues) {
  EXPECT_NEAR(log_gamma(1.0), 0.0, 1e-12);
  EXPECT_NEAR(log_gamma(2.0), 0.0, 1e-12);
  EXPECT_NEAR(log_gamma(5.0), std::log(24.0), 1e-10);
  EXPECT_NEAR(log_gamma(0.5), 0.5 * std::log(M_PI), 1e-10);
}

TEST(StudentT, IncompleteBetaEdges) {
  EXPECT_DOUBLE_EQ(regularized_incomplete_beta(2.0, 3.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(regularized_incomplete_beta(2.0, 3.0, 1.0), 1.0);
  EXPECT_THROW(regularized_incomplete_beta(0.0, 1.0, 0.5), std::invalid_argument);
}

TEST(StudentT, IncompleteBetaUniformCase) {
  // I_x(1,1) = x.
  for (double x : {0.1, 0.25, 0.5, 0.9}) {
    EXPECT_NEAR(regularized_incomplete_beta(1.0, 1.0, x), x, 1e-10);
  }
}

TEST(StudentT, IncompleteBetaSymmetry) {
  // I_x(a,b) = 1 - I_{1-x}(b,a).
  EXPECT_NEAR(regularized_incomplete_beta(2.5, 4.0, 0.3),
              1.0 - regularized_incomplete_beta(4.0, 2.5, 0.7), 1e-10);
}

// --- Student t ----------------------------------------------------------------

TEST(StudentT, CdfSymmetryAndCenter) {
  EXPECT_DOUBLE_EQ(student_t_cdf(0.0, 5.0), 0.5);
  EXPECT_NEAR(student_t_cdf(1.3, 7.0) + student_t_cdf(-1.3, 7.0), 1.0, 1e-12);
}

TEST(StudentT, CdfMatchesTableValues) {
  // P(T <= 2.2622) with 9 dof = 0.975 (classic t-table entry).
  EXPECT_NEAR(student_t_cdf(2.2622, 9.0), 0.975, 1e-4);
  // dof=1 is the Cauchy distribution: CDF(1) = 0.75.
  EXPECT_NEAR(student_t_cdf(1.0, 1.0), 0.75, 1e-10);
}

TEST(StudentT, QuantileInvertsCdf) {
  for (double dof : {1.0, 2.0, 5.0, 9.0, 30.0, 120.0}) {
    for (double p : {0.6, 0.8, 0.95, 0.975, 0.995}) {
      const double t = student_t_quantile(p, dof);
      EXPECT_NEAR(student_t_cdf(t, dof), p, 1e-8) << "dof=" << dof << " p=" << p;
    }
  }
}

TEST(StudentT, QuantileSymmetry) {
  EXPECT_NEAR(student_t_quantile(0.25, 7.0), -student_t_quantile(0.75, 7.0), 1e-10);
  EXPECT_DOUBLE_EQ(student_t_quantile(0.5, 7.0), 0.0);
}

TEST(StudentT, CriticalValuesMatchTable) {
  // Two-sided 95% with 9 dof (the paper's 10-run CI): 2.262.
  EXPECT_NEAR(student_t_critical(0.95, 9.0), 2.2622, 2e-4);
  // 95% with 2 dof: 4.3027.
  EXPECT_NEAR(student_t_critical(0.95, 2.0), 4.3027, 2e-4);
  // Large dof approaches the normal 1.96.
  EXPECT_NEAR(student_t_critical(0.95, 1e6), 1.95996, 1e-3);
}

TEST(StudentT, InvalidArguments) {
  EXPECT_THROW(student_t_quantile(0.0, 5.0), std::invalid_argument);
  EXPECT_THROW(student_t_quantile(1.0, 5.0), std::invalid_argument);
  EXPECT_THROW(student_t_quantile(0.5, 0.0), std::invalid_argument);
  EXPECT_THROW(student_t_critical(1.5, 5.0), std::invalid_argument);
}

// --- confidence intervals -------------------------------------------------------

TEST(Confidence, KnownInterval) {
  // Samples with mean 10, sd 1, n=4 -> half width = t(0.95,3) * 0.5.
  const std::vector<double> samples{9.0, 10.0, 10.0, 11.0};
  const ConfidenceInterval ci = mean_confidence_interval(samples, 0.95);
  EXPECT_DOUBLE_EQ(ci.mean, 10.0);
  const double expected = student_t_critical(0.95, 3.0) * std::sqrt(2.0 / 3.0) / 2.0;
  EXPECT_NEAR(ci.half_width, expected, 1e-10);
  EXPECT_DOUBLE_EQ(ci.lower(), ci.mean - ci.half_width);
  EXPECT_DOUBLE_EQ(ci.upper(), ci.mean + ci.half_width);
}

TEST(Confidence, DegenerateSampleCounts) {
  EXPECT_DOUBLE_EQ(mean_confidence_interval(std::vector<double>{}).half_width, 0.0);
  const ConfidenceInterval one = mean_confidence_interval(std::vector<double>{5.0});
  EXPECT_DOUBLE_EQ(one.mean, 5.0);
  EXPECT_DOUBLE_EQ(one.half_width, 0.0);
}

TEST(Confidence, WiderConfidenceWiderInterval) {
  const std::vector<double> samples{1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_LT(mean_confidence_interval(samples, 0.90).half_width,
            mean_confidence_interval(samples, 0.99).half_width);
}

}  // namespace
}  // namespace rtdls::stats
