#include "common/stats.h"

#include <gtest/gtest.h>

#include "common/check.h"

namespace dbs {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  EXPECT_DOUBLE_EQ(s.max(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(3.5);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 3.5);
  EXPECT_DOUBLE_EQ(s.max(), 3.5);
}

TEST(RunningStats, KnownSample) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance with n-1: Σ(x-5)² = 32, /7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.sum(), 40.0, 1e-12);
}

TEST(RunningStats, NumericallyStableOnLargeOffsets) {
  RunningStats s;
  const double offset = 1e9;
  for (double v : {offset + 1.0, offset + 2.0, offset + 3.0}) s.add(v);
  EXPECT_NEAR(s.mean(), offset + 2.0, 1e-3);
  EXPECT_NEAR(s.variance(), 1.0, 1e-6);
}

TEST(Percentile, MedianOfOddSample) {
  EXPECT_DOUBLE_EQ(percentile({3.0, 1.0, 2.0}, 0.5), 2.0);
}

TEST(Percentile, InterpolatesBetweenOrderStatistics) {
  // Sorted: 1 2 3 4. p50 position = 1.5 -> 2.5.
  EXPECT_DOUBLE_EQ(percentile({4.0, 1.0, 3.0, 2.0}, 0.5), 2.5);
}

TEST(Percentile, ExtremesAreMinMax) {
  const std::vector<double> v = {5.0, -1.0, 3.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), -1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 5.0);
}

TEST(Percentile, SingleElement) {
  EXPECT_DOUBLE_EQ(percentile({7.0}, 0.25), 7.0);
}

TEST(Percentile, RejectsEmptyAndBadQ) {
  EXPECT_THROW(percentile({}, 0.5), ContractViolation);
  EXPECT_THROW(percentile({1.0}, -0.1), ContractViolation);
  EXPECT_THROW(percentile({1.0}, 1.1), ContractViolation);
}

TEST(Summarize, EmptyInput) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(Summarize, FieldsAreConsistent) {
  std::vector<double> values;
  for (int i = 1; i <= 100; ++i) values.push_back(static_cast<double>(i));
  const Summary s = summarize(values);
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_NEAR(s.p50, 50.5, 1e-9);
  EXPECT_NEAR(s.p95, 95.05, 1e-9);
}

}  // namespace
}  // namespace dbs
