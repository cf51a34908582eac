// Statistics utilities used by the evaluation harness: descriptive statistics,
// empirical CDFs, Welch's unequal-variances t-test (used in §2.3 of the paper
// with significance level 0.02), and ordinary least-squares linear regression
// with confidence intervals (used in Fig. 10a).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace stellar::util {

double Mean(std::span<const double> xs);

/// Unbiased sample variance (n-1 denominator). Requires xs.size() >= 2.
double SampleVariance(std::span<const double> xs);

double SampleStdDev(std::span<const double> xs);

/// Percentile in [0,100] with linear interpolation between order statistics.
/// Requires a non-empty input; the input need not be sorted.
double Percentile(std::span<const double> xs, double pct);

/// Two-sided 95% confidence half-width of the mean (normal approximation).
double ConfidenceHalfWidth95(std::span<const double> xs);

/// Result of Welch's unequal-variances t-test.
struct WelchResult {
  double t_statistic = 0.0;
  double degrees_of_freedom = 0.0;  ///< Welch–Satterthwaite approximation.
  double p_value_one_tailed = 1.0;  ///< P(T >= t) under H0 (mean_a <= mean_b).
};

/// One-tailed Welch's t-test for H1: mean(a) > mean(b).
/// Both samples need at least two observations.
WelchResult WelchTTest(std::span<const double> a, std::span<const double> b);

/// CDF of Student's t distribution with `df` degrees of freedom.
double StudentTCdf(double t, double df);

/// Regularized incomplete beta function I_x(a, b), continued-fraction method.
double RegularizedIncompleteBeta(double a, double b, double x);

/// Ordinary least-squares fit y = intercept + slope * x.
struct LinearFit {
  double slope = 0.0;
  double intercept = 0.0;
  double r_squared = 0.0;
  double slope_stderr = 0.0;
  double intercept_stderr = 0.0;
  /// 95% confidence half-widths (t-distribution, n-2 dof).
  double slope_ci95 = 0.0;
  double intercept_ci95 = 0.0;

  [[nodiscard]] double predict(double x) const { return intercept + slope * x; }
};

/// Requires xs.size() == ys.size() >= 3 and non-constant xs.
LinearFit LinearRegression(std::span<const double> xs, std::span<const double> ys);

/// Empirical CDF: fraction of samples <= x.
class EmpiricalCdf {
 public:
  explicit EmpiricalCdf(std::vector<double> samples);

  /// P(X <= x).
  [[nodiscard]] double at(double x) const;
  /// Smallest sample value v with P(X <= v) >= q, q in (0, 1].
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] std::size_t size() const { return sorted_.size(); }
  [[nodiscard]] const std::vector<double>& sorted_samples() const { return sorted_; }

 private:
  std::vector<double> sorted_;
};

}  // namespace stellar::util
