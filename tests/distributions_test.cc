#include "common/distributions.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "common/check.h"

namespace dbs {
namespace {

TEST(Zipf, ProbabilitiesSumToOne) {
  for (double theta : {0.0, 0.4, 0.8, 1.0, 1.6}) {
    const auto p = zipf_probabilities(100, theta);
    const double sum = std::accumulate(p.begin(), p.end(), 0.0);
    EXPECT_NEAR(sum, 1.0, 1e-12) << "theta=" << theta;
  }
}

TEST(Zipf, ThetaZeroIsUniform) {
  const auto p = zipf_probabilities(50, 0.0);
  for (double v : p) EXPECT_NEAR(v, 1.0 / 50.0, 1e-12);
}

TEST(Zipf, MonotoneNonIncreasingInRank) {
  const auto p = zipf_probabilities(80, 1.2);
  for (std::size_t i = 1; i < p.size(); ++i) EXPECT_LE(p[i], p[i - 1]);
}

TEST(Zipf, HigherThetaMoreSkewed) {
  const auto lo = zipf_probabilities(100, 0.4);
  const auto hi = zipf_probabilities(100, 1.6);
  EXPECT_GT(hi.front(), lo.front());
  EXPECT_LT(hi.back(), lo.back());
}

TEST(Zipf, MatchesClosedFormForSmallN) {
  // n=3, theta=1: weights 1, 1/2, 1/3 -> total 11/6.
  const auto p = zipf_probabilities(3, 1.0);
  EXPECT_NEAR(p[0], (1.0) / (11.0 / 6.0), 1e-12);
  EXPECT_NEAR(p[1], (0.5) / (11.0 / 6.0), 1e-12);
  EXPECT_NEAR(p[2], (1.0 / 3.0) / (11.0 / 6.0), 1e-12);
}

TEST(Zipf, SingleItemGetsAllMass) {
  const auto p = zipf_probabilities(1, 0.8);
  ASSERT_EQ(p.size(), 1u);
  EXPECT_DOUBLE_EQ(p[0], 1.0);
}

TEST(Zipf, RejectsZeroItems) {
  EXPECT_THROW(zipf_probabilities(0, 1.0), ContractViolation);
}

TEST(Zipf, RejectsNegativeTheta) {
  EXPECT_THROW(zipf_probabilities(10, -0.1), ContractViolation);
}

TEST(AliasSampler, NormalizesWeights) {
  const AliasSampler sampler({2.0, 6.0});
  EXPECT_NEAR(sampler.probability(0), 0.25, 1e-12);
  EXPECT_NEAR(sampler.probability(1), 0.75, 1e-12);
}

TEST(AliasSampler, EmpiricalFrequenciesMatch) {
  const std::vector<double> weights = {0.5, 0.2, 0.2, 0.05, 0.05};
  const AliasSampler sampler(weights);
  Rng rng(99);
  std::vector<int> counts(weights.size(), 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) ++counts[sampler.sample(rng)];
  for (std::size_t i = 0; i < weights.size(); ++i) {
    EXPECT_NEAR(static_cast<double>(counts[i]) / n, weights[i], 0.01) << "bucket " << i;
  }
}

TEST(AliasSampler, HandlesZeroWeightBuckets) {
  const AliasSampler sampler({0.0, 1.0, 0.0});
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(sampler.sample(rng), 1u);
}

TEST(AliasSampler, SingleBucket) {
  const AliasSampler sampler({42.0});
  Rng rng(5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(sampler.sample(rng), 0u);
}

TEST(AliasSampler, RejectsEmptyAndNegative) {
  EXPECT_THROW(AliasSampler({}), ContractViolation);
  EXPECT_THROW(AliasSampler({1.0, -0.5}), ContractViolation);
  EXPECT_THROW(AliasSampler({0.0, 0.0}), ContractViolation);
}

TEST(AliasSampler, HandlesHighlySkewedZipf) {
  const auto p = zipf_probabilities(1000, 1.6);
  const AliasSampler sampler(p);
  Rng rng(17);
  int rank0 = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) rank0 += (sampler.sample(rng) == 0);
  EXPECT_NEAR(static_cast<double>(rank0) / n, p[0], 0.01);
}

TEST(Exponential, MeanIsInverseRate) {
  Rng rng(3);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += sample_exponential(rng, 4.0);
  EXPECT_NEAR(sum / n, 0.25, 0.01);
}

TEST(Exponential, AlwaysPositive) {
  Rng rng(8);
  for (int i = 0; i < 10000; ++i) ASSERT_GE(sample_exponential(rng, 1.0), 0.0);
}

TEST(Exponential, RejectsNonPositiveRate) {
  Rng rng(1);
  EXPECT_THROW(sample_exponential(rng, 0.0), ContractViolation);
  EXPECT_THROW(sample_exponential(rng, -1.0), ContractViolation);
}

}  // namespace
}  // namespace dbs
