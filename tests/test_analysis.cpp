#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

#include "analysis/stats.hpp"
#include "analysis/table.hpp"
#include "sim/sweep.hpp"

namespace faultroute {
namespace {

// ------------------------------------------------------------------ Summary

TEST(Summary, BasicMoments) {
  Summary s;
  for (const double x : {1.0, 2.0, 3.0, 4.0, 5.0}) s.add(x);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_DOUBLE_EQ(s.median(), 3.0);
  EXPECT_NEAR(s.sem(), std::sqrt(2.5 / 5.0), 1e-12);
}

TEST(Summary, QuantilesAreNearestRank) {
  Summary s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 100.0);
  // Nearest-rank: the smallest value covering ceil(q*n) of the sample —
  // rank ceil(0.9 * 100) = 90, i.e. the value 90 (not 91: the old floor
  // formula overshot by one rank whenever q*n was an integer).
  EXPECT_DOUBLE_EQ(s.quantile(0.9), 90.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.25), 25.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.001), 1.0);  // ceil(0.1) = rank 1
}

TEST(Summary, MedianOfEvenSampleIsTheLowerMiddleValue) {
  // Regression: floor(q*n) made median() of {1,2,3,4} return 3. Nearest-rank
  // has no interpolation, so the even-sample median is the lower middle.
  Summary s;
  for (const double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.median(), 2.0);

  Summary two;
  two.add(10.0);
  two.add(20.0);
  EXPECT_DOUBLE_EQ(two.median(), 10.0);
}

TEST(Summary, QuantileEndpointsAreMinAndMaxOnAnySampleSize) {
  for (int n = 1; n <= 5; ++n) {
    Summary s;
    for (int i = 1; i <= n; ++i) s.add(i * 10.0);
    EXPECT_DOUBLE_EQ(s.quantile(0.0), s.min()) << "n=" << n;
    EXPECT_DOUBLE_EQ(s.quantile(1.0), s.max()) << "n=" << n;
  }
  Summary s;
  s.add(7.0);
  EXPECT_THROW((void)s.quantile(-0.1), std::invalid_argument);
  EXPECT_THROW((void)s.quantile(1.1), std::invalid_argument);
}

TEST(Summary, EmptyThrows) {
  const Summary s;
  EXPECT_THROW((void)s.mean(), std::logic_error);
  EXPECT_THROW((void)s.min(), std::logic_error);
  EXPECT_THROW((void)s.quantile(0.5), std::logic_error);
}

TEST(Summary, VarianceSurvivesLargeMeanSmallSpread) {
  // Regression: the one-pass sum-of-squares formula cancels catastrophically
  // here — (sum_sq - n*m^2) lost all 16 significant digits and reported
  // variance 0. The two-pass computation is exact (every value, the mean,
  // and the deviations are representable doubles).
  Summary s;
  s.add(1e8);
  s.add(1e8 + 1);
  s.add(1e8 + 2);
  EXPECT_DOUBLE_EQ(s.mean(), 1e8 + 1);
  EXPECT_DOUBLE_EQ(s.variance(), 1.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 1.0);

  Summary shifted;  // even larger mean, non-integer spread
  for (const double x : {4e15, 4e15 + 2, 4e15 + 4}) shifted.add(x);
  EXPECT_DOUBLE_EQ(shifted.variance(), 4.0);
}

TEST(Summary, SingletonHasZeroVariance) {
  Summary s;
  s.add(7.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(Summary, QuantileCacheInvalidatedOnAdd) {
  Summary s;
  s.add(10.0);
  EXPECT_DOUBLE_EQ(s.median(), 10.0);
  s.add(0.0);
  s.add(0.0);
  EXPECT_DOUBLE_EQ(s.median(), 0.0);
}

// ------------------------------------------------------------------ Wilson

TEST(Wilson, ZeroTrialsIsVacuous) {
  const Interval ci = wilson_interval(0, 0);
  EXPECT_DOUBLE_EQ(ci.low, 0.0);
  EXPECT_DOUBLE_EQ(ci.high, 1.0);
}

TEST(Wilson, ContainsTruePForFairCoin) {
  const Interval ci = wilson_interval(480, 1000);
  EXPECT_TRUE(ci.contains(0.5));
  EXPECT_FALSE(ci.contains(0.56));
}

TEST(Wilson, ExtremesStayInUnitInterval) {
  const Interval zero = wilson_interval(0, 50);
  const Interval one = wilson_interval(50, 50);
  EXPECT_GE(zero.low, 0.0);
  EXPECT_GT(zero.high, 0.0);
  EXPECT_LT(one.low, 1.0);
  EXPECT_LE(one.high, 1.0);
}

TEST(Wilson, NarrowsWithSampleSize) {
  const Interval small = wilson_interval(5, 10);
  const Interval large = wilson_interval(500, 1000);
  EXPECT_LT(large.high - large.low, small.high - small.low);
}

// -------------------------------------------------------------- Linear fits

TEST(LinearFit, RecoversExactLine) {
  const std::vector<double> xs = {1, 2, 3, 4, 5};
  const std::vector<double> ys = {3, 5, 7, 9, 11};  // y = 2x + 1
  const LinearFit fit = linear_fit(xs, ys);
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(LinearFit, RejectsDegenerateInput) {
  EXPECT_THROW((void)linear_fit({1.0}, {2.0}), std::invalid_argument);
  EXPECT_THROW((void)linear_fit({1, 2}, {1}), std::invalid_argument);
  EXPECT_THROW((void)linear_fit({3, 3, 3}, {1, 2, 3}), std::invalid_argument);
}

TEST(LogLogFit, RecoversPowerLawExponent) {
  std::vector<double> xs;
  std::vector<double> ys;
  for (double x = 1; x <= 64; x *= 2) {
    xs.push_back(x);
    ys.push_back(5.0 * std::pow(x, 1.5));
  }
  const LinearFit fit = log_log_fit(xs, ys);
  EXPECT_NEAR(fit.slope, 1.5, 1e-9);
}

TEST(LogLogFit, RejectsNonPositive) {
  EXPECT_THROW((void)log_log_fit({1, -2}, {1, 1}), std::invalid_argument);
  EXPECT_THROW((void)log_log_fit({1, 2}, {0, 1}), std::invalid_argument);
}

TEST(SemilogFit, RecoversExponentialRate) {
  std::vector<double> xs;
  std::vector<double> ys;
  for (double x = 0; x < 10; ++x) {
    xs.push_back(x);
    ys.push_back(2.0 * std::exp(0.7 * x));
  }
  const LinearFit fit = semilog_fit(xs, ys);
  EXPECT_NEAR(fit.slope, 0.7, 1e-9);
}

// -------------------------------------------------------------------- Table

TEST(Table, AlignsAndPrints) {
  Table t({"name", "value"});
  t.add_row({"alpha", Table::fmt(0.5, 2)});
  t.add_row({"very-long-name", Table::fmt(std::uint64_t{42})});
  const std::string rendered = t.to_string();
  EXPECT_NE(rendered.find("alpha"), std::string::npos);
  EXPECT_NE(rendered.find("0.50"), std::string::npos);
  EXPECT_NE(rendered.find("very-long-name"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(Table, RejectsMalformedRows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
  EXPECT_THROW(Table({}), std::invalid_argument);
}

// -------------------------------------------------------------------- Sweep

TEST(Sweep, LinspaceEndpoints) {
  const auto v = sim::linspace(0.0, 1.0, 5);
  ASSERT_EQ(v.size(), 5u);
  EXPECT_DOUBLE_EQ(v.front(), 0.0);
  EXPECT_DOUBLE_EQ(v.back(), 1.0);
  EXPECT_DOUBLE_EQ(v[2], 0.5);
}

TEST(Sweep, LogspaceIsGeometric) {
  const auto v = sim::logspace(1.0, 100.0, 3);
  ASSERT_EQ(v.size(), 3u);
  EXPECT_NEAR(v[1], 10.0, 1e-9);
}

TEST(Sweep, PForAlpha) {
  EXPECT_NEAR(sim::p_for_alpha(16, 0.5), 0.25, 1e-12);
  EXPECT_NEAR(sim::p_for_alpha(10, 1.0), 0.1, 1e-12);
  EXPECT_DOUBLE_EQ(sim::p_for_alpha(7, 0.0), 1.0);
}

TEST(Sweep, GeometricSizesDeduplicatesAndCaps) {
  const auto v = sim::geometric_sizes(10, 1.05, 12);
  // 10, 10.5 -> 11 (rounded), 11.6 -> 12, capped.
  ASSERT_GE(v.size(), 2u);
  EXPECT_EQ(v.front(), 10u);
  EXPECT_LE(v.back(), 12u);
  for (std::size_t i = 1; i < v.size(); ++i) EXPECT_GT(v[i], v[i - 1]);
}

TEST(Sweep, ValidatesArguments) {
  EXPECT_THROW(sim::linspace(0, 1, 1), std::invalid_argument);
  EXPECT_THROW(sim::logspace(0, 1, 3), std::invalid_argument);
  EXPECT_THROW(sim::geometric_sizes(0, 2.0, 10), std::invalid_argument);
  EXPECT_THROW(sim::geometric_sizes(1, 1.0, 10), std::invalid_argument);
}

}  // namespace
}  // namespace faultroute
