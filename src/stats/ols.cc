#include "stats/ols.h"

#include <cmath>

namespace smartmeter::stats {

Result<LinearFit> FitLine(std::span<const double> x,
                          std::span<const double> y) {
  if (x.size() != y.size()) {
    return Status::InvalidArgument("FitLine: x and y sizes differ");
  }
  if (x.empty()) {
    return Status::InvalidArgument("FitLine: empty input");
  }
  const double n = static_cast<double>(x.size());
  double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0, syy = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    sx += x[i];
    sy += y[i];
    sxx += x[i] * x[i];
    sxy += x[i] * y[i];
    syy += y[i] * y[i];
  }
  const double var_x = sxx - sx * sx / n;
  const double cov_xy = sxy - sx * sy / n;
  const double var_y = syy - sy * sy / n;

  LinearFit fit;
  fit.n = x.size();
  if (var_x <= 0.0) {
    // Degenerate: vertical stack of points. Flat line through mean(y).
    fit.slope = 0.0;
    fit.intercept = sy / n;
    fit.r_squared = 0.0;
    return fit;
  }
  fit.slope = cov_xy / var_x;
  fit.intercept = (sy - fit.slope * sx) / n;
  if (var_y <= 0.0) {
    fit.r_squared = 1.0;  // y constant and reproduced exactly.
  } else {
    fit.r_squared = (cov_xy * cov_xy) / (var_x * var_y);
  }
  return fit;
}

Result<LinearFit> FitLineWeighted(std::span<const double> x,
                                  std::span<const double> y,
                                  std::span<const double> w) {
  if (x.size() != y.size() || x.size() != w.size()) {
    return Status::InvalidArgument("FitLineWeighted: size mismatch");
  }
  if (x.empty()) {
    return Status::InvalidArgument("FitLineWeighted: empty input");
  }
  double sw = 0.0, sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    if (w[i] < 0.0) {
      return Status::InvalidArgument("FitLineWeighted: negative weight");
    }
    sw += w[i];
    sx += w[i] * x[i];
    sy += w[i] * y[i];
    sxx += w[i] * x[i] * x[i];
    sxy += w[i] * x[i] * y[i];
  }
  if (sw <= 0.0) {
    return Status::InvalidArgument("FitLineWeighted: zero total weight");
  }
  const double var_x = sxx - sx * sx / sw;
  const double cov_xy = sxy - sx * sy / sw;
  LinearFit fit;
  fit.n = x.size();
  if (var_x <= 0.0) {
    fit.slope = 0.0;
    fit.intercept = sy / sw;
    fit.r_squared = 0.0;
    return fit;
  }
  fit.slope = cov_xy / var_x;
  fit.intercept = (sy - fit.slope * sx) / sw;
  // r^2 for the weighted case: 1 - weighted SSE / weighted SST.
  double sse = 0.0, sst = 0.0;
  const double mean_y = sy / sw;
  for (size_t i = 0; i < x.size(); ++i) {
    const double resid = y[i] - fit.Predict(x[i]);
    const double dev = y[i] - mean_y;
    sse += w[i] * resid * resid;
    sst += w[i] * dev * dev;
  }
  fit.r_squared = sst > 0.0 ? std::max(0.0, 1.0 - sse / sst) : 1.0;
  return fit;
}

}  // namespace smartmeter::stats
