#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/rng.hpp"

namespace stellar::util {
namespace {

TEST(StatsTest, MeanAndVariance) {
  const std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(Mean(xs), 5.0);
  EXPECT_NEAR(SampleVariance(xs), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(SampleStdDev(xs), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(StatsTest, MeanOfEmptyThrows) {
  EXPECT_THROW(Mean({}), std::invalid_argument);
  EXPECT_THROW(SampleVariance(std::vector<double>{1.0}), std::invalid_argument);
}

TEST(StatsTest, PercentileInterpolates) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(Percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 50.0), 2.5);
}

TEST(StatsTest, PercentileUnsortedInput) {
  const std::vector<double> xs{4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(Percentile(xs, 50.0), 2.5);
}

TEST(StatsTest, PercentileValidatesRange) {
  const std::vector<double> xs{1.0};
  EXPECT_THROW(Percentile(xs, -1.0), std::invalid_argument);
  EXPECT_THROW(Percentile(xs, 101.0), std::invalid_argument);
}

TEST(StatsTest, StudentTCdfMatchesKnownValues) {
  // t=0 is always 0.5; large df approximates the normal distribution.
  EXPECT_NEAR(StudentTCdf(0.0, 5.0), 0.5, 1e-10);
  EXPECT_NEAR(StudentTCdf(1.96, 1e6), 0.975, 1e-3);
  // df=1 (Cauchy): CDF(1) = 0.75.
  EXPECT_NEAR(StudentTCdf(1.0, 1.0), 0.75, 1e-6);
  // Symmetry.
  EXPECT_NEAR(StudentTCdf(-2.0, 7.0) + StudentTCdf(2.0, 7.0), 1.0, 1e-10);
}

TEST(StatsTest, RegularizedIncompleteBetaBounds) {
  EXPECT_DOUBLE_EQ(RegularizedIncompleteBeta(2.0, 3.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(RegularizedIncompleteBeta(2.0, 3.0, 1.0), 1.0);
  // I_x(1,1) = x.
  EXPECT_NEAR(RegularizedIncompleteBeta(1.0, 1.0, 0.3), 0.3, 1e-10);
}

TEST(StatsTest, WelchDetectsDifferentMeans) {
  Rng rng(1);
  std::vector<double> a;
  std::vector<double> b;
  for (int i = 0; i < 200; ++i) {
    a.push_back(rng.normal(10.0, 2.0));
    b.push_back(rng.normal(8.0, 3.0));
  }
  const WelchResult r = WelchTTest(a, b);
  EXPECT_GT(r.t_statistic, 2.0);
  // The paper uses significance level 0.02 for exactly this test.
  EXPECT_LT(r.p_value_one_tailed, 0.02);
}

TEST(StatsTest, WelchNoDifferenceHasHighPValue) {
  Rng rng(2);
  std::vector<double> a;
  std::vector<double> b;
  for (int i = 0; i < 200; ++i) {
    a.push_back(rng.normal(5.0, 1.0));
    b.push_back(rng.normal(5.0, 1.0));
  }
  const WelchResult r = WelchTTest(a, b);
  EXPECT_GT(r.p_value_one_tailed, 0.02);
}

TEST(StatsTest, WelchDegenerateConstantSamples) {
  const std::vector<double> a{3.0, 3.0, 3.0};
  const std::vector<double> b{1.0, 1.0, 1.0};
  const WelchResult r = WelchTTest(a, b);
  EXPECT_EQ(r.p_value_one_tailed, 0.0);  // a > b with certainty.
}

TEST(StatsTest, LinearRegressionRecoversLine) {
  std::vector<double> xs;
  std::vector<double> ys;
  for (int i = 0; i < 50; ++i) {
    xs.push_back(i);
    ys.push_back(3.0 + 2.0 * i);
  }
  const LinearFit fit = LinearRegression(xs, ys);
  EXPECT_NEAR(fit.slope, 2.0, 1e-9);
  EXPECT_NEAR(fit.intercept, 3.0, 1e-9);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
  EXPECT_NEAR(fit.slope_ci95, 0.0, 1e-9);
}

TEST(StatsTest, LinearRegressionNoisyHasSaneCi) {
  Rng rng(3);
  std::vector<double> xs;
  std::vector<double> ys;
  for (int i = 0; i < 100; ++i) {
    xs.push_back(i * 0.1);
    ys.push_back(1.0 + 0.5 * i * 0.1 + rng.normal(0.0, 0.2));
  }
  const LinearFit fit = LinearRegression(xs, ys);
  EXPECT_NEAR(fit.slope, 0.5, 0.1);
  EXPECT_GT(fit.slope_ci95, 0.0);
  EXPECT_LT(std::abs(fit.slope - 0.5), 3.0 * fit.slope_ci95);
}

TEST(StatsTest, LinearRegressionRejectsConstantX) {
  const std::vector<double> xs{1.0, 1.0, 1.0};
  const std::vector<double> ys{1.0, 2.0, 3.0};
  EXPECT_THROW(LinearRegression(xs, ys), std::invalid_argument);
}

TEST(StatsTest, EmpiricalCdfBasics) {
  EmpiricalCdf cdf({4.0, 1.0, 3.0, 2.0});
  EXPECT_DOUBLE_EQ(cdf.at(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.at(1.0), 0.25);
  EXPECT_DOUBLE_EQ(cdf.at(2.5), 0.5);
  EXPECT_DOUBLE_EQ(cdf.at(10.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 2.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 4.0);
}

TEST(StatsTest, ConfidenceHalfWidthShrinksWithN) {
  Rng rng(4);
  std::vector<double> small;
  std::vector<double> large;
  for (int i = 0; i < 20; ++i) small.push_back(rng.normal(0.0, 1.0));
  for (int i = 0; i < 2000; ++i) large.push_back(rng.normal(0.0, 1.0));
  EXPECT_GT(ConfidenceHalfWidth95(small), ConfidenceHalfWidth95(large));
}

// Property sweep: percentile is monotone in pct for arbitrary samples.
class PercentileMonotoneTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PercentileMonotoneTest, MonotoneInPct) {
  Rng rng(GetParam());
  std::vector<double> xs;
  const int n = static_cast<int>(rng.uniform_int(1, 200));
  for (int i = 0; i < n; ++i) xs.push_back(rng.normal(0.0, 10.0));
  double prev = Percentile(xs, 0.0);
  for (double pct = 5.0; pct <= 100.0; pct += 5.0) {
    const double cur = Percentile(xs, pct);
    EXPECT_GE(cur, prev) << "pct=" << pct;
    prev = cur;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PercentileMonotoneTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

}  // namespace
}  // namespace stellar::util
