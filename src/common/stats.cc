#include "common/stats.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace dbs {

void RunningStats::add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningStats::mean() const { return count_ == 0 ? 0.0 : mean_; }

double RunningStats::variance() const {
  return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::min() const { return count_ == 0 ? 0.0 : min_; }

double RunningStats::max() const { return count_ == 0 ? 0.0 : max_; }

double percentile(std::vector<double> values, double q) {
  DBS_CHECK(!values.empty());
  DBS_CHECK(q >= 0.0 && q <= 1.0);
  std::sort(values.begin(), values.end());
  if (values.size() == 1) return values.front();
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

Summary summarize(const std::vector<double>& values) {
  Summary s;
  if (values.empty()) return s;
  RunningStats rs;
  for (double v : values) rs.add(v);
  s.count = rs.count();
  s.mean = rs.mean();
  s.stddev = rs.stddev();
  s.min = rs.min();
  s.max = rs.max();
  s.p50 = percentile(values, 0.50);
  s.p95 = percentile(values, 0.95);
  return s;
}

}  // namespace dbs
