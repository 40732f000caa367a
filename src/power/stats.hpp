// Statistics for power analysis: moments, Pearson correlation, and the
// NED/NSD balancedness metrics over arbitrary sample sets.
#pragma once

#include <cstddef>
#include <vector>

namespace sable {

double mean(const std::vector<double>& xs);
double stddev(const std::vector<double>& xs);  // population

/// Pearson correlation coefficient; 0 when either side is constant.
double pearson(const std::vector<double>& xs, const std::vector<double>& ys);

struct SpreadMetrics {
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double stddev = 0.0;
  double ned = 0.0;  // (max - min) / max
  double nsd = 0.0;  // stddev / mean
};

SpreadMetrics spread_metrics(const std::vector<double>& xs);

}  // namespace sable
