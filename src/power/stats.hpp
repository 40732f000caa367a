// Statistics for power analysis: moments, Pearson correlation, and the
// NED/NSD balancedness metrics over arbitrary sample sets.
#pragma once

#include <cstddef>
#include <vector>

namespace sable {

class ByteReader;
class ByteWriter;

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

/// Welford's online mean/variance accumulator: numerically stable one-pass
/// moments, the primitive under the streaming CPA sample-stream statistics.
/// Stability matters here because trace energies sit at ~1e-13 J with
/// ~1e-15 J data-dependent variation — naive raw-moment sums cancel.
class OnlineMoments {
 public:
  /// Adds x and returns its deviation from the *updated* mean — the
  /// cross-term a Welford co-moment accumulator multiplies against.
  double add(double x) {
    ++n_;
    const double d = x - mean_;
    mean_ += d / static_cast<double>(n_);
    const double d_new = x - mean_;
    m2_ += d * d_new;
    return d_new;
  }

  /// Folds another accumulator into this one (Chan et al. pairwise
  /// update): the result holds the moments of the concatenated sample
  /// streams in O(1), which is what lets campaign shards accumulate
  /// independently on worker threads and combine afterwards. Merging is
  /// deterministic — a fixed merge order gives bit-identical results
  /// regardless of which thread produced which operand.
  void merge(const OnlineMoments& other);

  std::size_t count() const { return n_; }
  double mean() const { return mean_; }
  /// Sum of squared deviations from the running mean.
  double m2() const { return m2_; }
  double variance() const;  // population
  double stddev() const;

  /// Bit-exact binary round trip (io/serial.hpp): the serialized moments
  /// reload into the identical accumulator state, so checkpointed
  /// campaigns resume without any numeric drift.
  void save(ByteWriter& writer) const;
  void load(ByteReader& reader);

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

}  // namespace sable
