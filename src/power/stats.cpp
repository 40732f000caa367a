#include "power/stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace sable {

double mean(const std::vector<double>& xs) {
  SABLE_REQUIRE(!xs.empty(), "mean of empty sample set");
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double stddev(const std::vector<double>& xs) {
  const double mu = mean(xs);
  double var = 0.0;
  for (double x : xs) var += (x - mu) * (x - mu);
  return std::sqrt(var / static_cast<double>(xs.size()));
}

double pearson(const std::vector<double>& xs, const std::vector<double>& ys) {
  SABLE_REQUIRE(xs.size() == ys.size() && !xs.empty(),
                "pearson requires equal-size non-empty samples");
  const double mx = mean(xs);
  const double my = mean(ys);
  double sxy = 0.0;
  double sxx = 0.0;
  double syy = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

SpreadMetrics spread_metrics(const std::vector<double>& xs) {
  SABLE_REQUIRE(!xs.empty(), "spread_metrics of empty sample set");
  SpreadMetrics m;
  const auto [mn, mx] = std::minmax_element(xs.begin(), xs.end());
  m.min = *mn;
  m.max = *mx;
  m.mean = mean(xs);
  m.stddev = stddev(xs);
  m.ned = m.max > 0.0 ? (m.max - m.min) / m.max : 0.0;
  m.nsd = m.mean > 0.0 ? m.stddev / m.mean : 0.0;
  return m;
}

}  // namespace sable
