// Online and batch summary statistics for experiment measurements.
#pragma once

#include <cstddef>
#include <vector>

namespace dbs {

/// Numerically stable streaming mean/variance (Welford) with min/max.
class RunningStats {
 public:
  /// Adds one observation.
  void add(double x);

  std::size_t count() const { return count_; }
  double mean() const;
  /// Sample variance (n-1 denominator); 0 when fewer than two observations.
  double variance() const;
  double stddev() const;
  double min() const;
  double max() const;
  double sum() const { return mean() * static_cast<double>(count_); }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Batch percentile computation. `q` in [0,1]; linear interpolation between
/// order statistics. The input vector is copied, not mutated.
double percentile(std::vector<double> values, double q);

/// Summary of a sample: count, mean, stddev, min, p50, p95, max.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double max = 0.0;
};

/// Computes a Summary of `values` (empty input yields a zero summary).
Summary summarize(const std::vector<double>& values);

}  // namespace dbs
