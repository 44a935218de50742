#ifndef SMARTMETER_STATS_OLS_H_
#define SMARTMETER_STATS_OLS_H_

#include <cstddef>
#include <span>

#include "common/result.h"

namespace smartmeter::stats {

/// y = intercept + slope * x fitted by ordinary least squares.
struct LinearFit {
  double slope = 0.0;
  double intercept = 0.0;
  /// Coefficient of determination in [0, 1]; 1 for a perfect fit, 0 when
  /// the model explains nothing (or the data is degenerate).
  double r_squared = 0.0;
  size_t n = 0;

  double Predict(double x) const { return intercept + slope * x; }
};

/// Fits a simple least-squares line through (x[i], y[i]). For constant x
/// the slope is 0 and the intercept is mean(y) (degenerate but well
/// defined, which the 3-line algorithm relies on for narrow temperature
/// bands). Fails on empty or mismatched input.
Result<LinearFit> FitLine(std::span<const double> x,
                          std::span<const double> y);

/// Weighted variant: each point i contributes weight w[i] >= 0.
Result<LinearFit> FitLineWeighted(std::span<const double> x,
                                  std::span<const double> y,
                                  std::span<const double> w);

}  // namespace smartmeter::stats

#endif  // SMARTMETER_STATS_OLS_H_
