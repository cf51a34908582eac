#include "util/stats.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace stellar::util {

double Mean(std::span<const double> xs) {
  if (xs.empty()) throw std::invalid_argument("Mean: empty sample");
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double SampleVariance(std::span<const double> xs) {
  if (xs.size() < 2) throw std::invalid_argument("SampleVariance: need >= 2 samples");
  const double m = Mean(xs);
  double ss = 0.0;
  for (double x : xs) ss += (x - m) * (x - m);
  return ss / static_cast<double>(xs.size() - 1);
}

double SampleStdDev(std::span<const double> xs) { return std::sqrt(SampleVariance(xs)); }

double Percentile(std::span<const double> xs, double pct) {
  if (xs.empty()) throw std::invalid_argument("Percentile: empty sample");
  if (pct < 0.0 || pct > 100.0) throw std::invalid_argument("Percentile: pct out of [0,100]");
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) return sorted.front();
  const double rank = pct / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = static_cast<std::size_t>(std::ceil(rank));
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double ConfidenceHalfWidth95(std::span<const double> xs) {
  if (xs.size() < 2) return 0.0;
  return 1.96 * SampleStdDev(xs) / std::sqrt(static_cast<double>(xs.size()));
}

namespace {

// Lanczos approximation of ln(Gamma(x)), x > 0.
double LnGamma(double x) {
  static constexpr double kCoef[6] = {76.18009172947146,  -86.50532032941677,
                                      24.01409824083091,  -1.231739572450155,
                                      0.1208650973866179e-2, -0.5395239384953e-5};
  double y = x;
  double tmp = x + 5.5;
  tmp -= (x + 0.5) * std::log(tmp);
  double ser = 1.000000000190015;
  for (double c : kCoef) ser += c / ++y;
  return -tmp + std::log(2.5066282746310005 * ser / x);
}

// Continued fraction for the incomplete beta function (Numerical Recipes
// "betacf" scheme with modified Lentz iteration).
double BetaContinuedFraction(double a, double b, double x) {
  constexpr int kMaxIter = 300;
  constexpr double kEps = 3.0e-12;
  constexpr double kFpMin = 1.0e-300;

  const double qab = a + b;
  const double qap = a + 1.0;
  const double qam = a - 1.0;
  double c = 1.0;
  double d = 1.0 - qab * x / qap;
  if (std::fabs(d) < kFpMin) d = kFpMin;
  d = 1.0 / d;
  double h = d;
  for (int m = 1; m <= kMaxIter; ++m) {
    const int m2 = 2 * m;
    double aa = m * (b - m) * x / ((qam + m2) * (a + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kFpMin) d = kFpMin;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    h *= d * c;
    aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kFpMin) d = kFpMin;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < kEps) break;
  }
  return h;
}

}  // namespace

double RegularizedIncompleteBeta(double a, double b, double x) {
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  const double ln_front =
      LnGamma(a + b) - LnGamma(a) - LnGamma(b) + a * std::log(x) + b * std::log(1.0 - x);
  const double front = std::exp(ln_front);
  // Use the symmetry that keeps the continued fraction convergent.
  if (x < (a + 1.0) / (a + b + 2.0)) {
    return front * BetaContinuedFraction(a, b, x) / a;
  }
  return 1.0 - front * BetaContinuedFraction(b, a, 1.0 - x) / b;
}

double StudentTCdf(double t, double df) {
  if (df <= 0.0) throw std::invalid_argument("StudentTCdf: df must be positive");
  const double x = df / (df + t * t);
  const double p = 0.5 * RegularizedIncompleteBeta(df / 2.0, 0.5, x);
  return t >= 0.0 ? 1.0 - p : p;
}

WelchResult WelchTTest(std::span<const double> a, std::span<const double> b) {
  if (a.size() < 2 || b.size() < 2) {
    throw std::invalid_argument("WelchTTest: both samples need >= 2 observations");
  }
  const double na = static_cast<double>(a.size());
  const double nb = static_cast<double>(b.size());
  const double va = SampleVariance(a) / na;
  const double vb = SampleVariance(b) / nb;
  WelchResult r;
  const double denom = std::sqrt(va + vb);
  if (denom == 0.0) {
    // Degenerate samples with identical constant values: no evidence either way.
    r.t_statistic = 0.0;
    r.degrees_of_freedom = na + nb - 2.0;
    r.p_value_one_tailed = Mean(a) > Mean(b) ? 0.0 : 1.0;
    return r;
  }
  r.t_statistic = (Mean(a) - Mean(b)) / denom;
  r.degrees_of_freedom = (va + vb) * (va + vb) /
                         (va * va / (na - 1.0) + vb * vb / (nb - 1.0));
  r.p_value_one_tailed = 1.0 - StudentTCdf(r.t_statistic, r.degrees_of_freedom);
  return r;
}

LinearFit LinearRegression(std::span<const double> xs, std::span<const double> ys) {
  if (xs.size() != ys.size() || xs.size() < 3) {
    throw std::invalid_argument("LinearRegression: need paired samples, n >= 3");
  }
  const double n = static_cast<double>(xs.size());
  const double mx = Mean(xs);
  const double my = Mean(ys);
  double sxx = 0.0;
  double sxy = 0.0;
  double syy = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    sxx += (xs[i] - mx) * (xs[i] - mx);
    sxy += (xs[i] - mx) * (ys[i] - my);
    syy += (ys[i] - my) * (ys[i] - my);
  }
  if (sxx == 0.0) throw std::invalid_argument("LinearRegression: constant x");

  LinearFit fit;
  fit.slope = sxy / sxx;
  fit.intercept = my - fit.slope * mx;

  double ss_res = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double e = ys[i] - fit.predict(xs[i]);
    ss_res += e * e;
  }
  fit.r_squared = syy == 0.0 ? 1.0 : 1.0 - ss_res / syy;

  const double dof = n - 2.0;
  const double s2 = ss_res / dof;  // Residual variance.
  fit.slope_stderr = std::sqrt(s2 / sxx);
  fit.intercept_stderr = std::sqrt(s2 * (1.0 / n + mx * mx / sxx));

  // Invert the t CDF for the 97.5% point by bisection (dof is small, this is
  // evaluated once per fit — clarity over speed).
  double lo = 0.0;
  double hi = 100.0;
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (lo + hi);
    (StudentTCdf(mid, dof) < 0.975 ? lo : hi) = mid;
  }
  const double t975 = 0.5 * (lo + hi);
  fit.slope_ci95 = t975 * fit.slope_stderr;
  fit.intercept_ci95 = t975 * fit.intercept_stderr;
  return fit;
}

EmpiricalCdf::EmpiricalCdf(std::vector<double> samples) : sorted_(std::move(samples)) {
  if (sorted_.empty()) throw std::invalid_argument("EmpiricalCdf: empty sample");
  std::sort(sorted_.begin(), sorted_.end());
}

double EmpiricalCdf::at(double x) const {
  const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  return static_cast<double>(it - sorted_.begin()) / static_cast<double>(sorted_.size());
}

double EmpiricalCdf::quantile(double q) const {
  if (q <= 0.0 || q > 1.0) throw std::invalid_argument("EmpiricalCdf::quantile: q in (0,1]");
  const auto idx = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted_.size()))) - 1;
  return sorted_[std::min(idx, sorted_.size() - 1)];
}

}  // namespace stellar::util
