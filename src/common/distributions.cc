#include "common/distributions.h"

#include <cmath>
#include <numeric>

#include "common/check.h"

namespace dbs {

std::vector<double> zipf_probabilities(std::size_t n, double theta) {
  DBS_CHECK(n > 0);
  DBS_CHECK(theta >= 0.0);
  std::vector<double> p(n);
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = std::pow(1.0 / static_cast<double>(i + 1), theta);
    sum += p[i];
  }
  for (double& v : p) v /= sum;
  return p;
}

AliasSampler::AliasSampler(const std::vector<double>& weights) {
  DBS_CHECK(!weights.empty());
  const std::size_t n = weights.size();
  double total = 0.0;
  for (double w : weights) {
    DBS_CHECK_MSG(w >= 0.0, "alias weights must be non-negative");
    total += w;
  }
  DBS_CHECK_MSG(total > 0.0, "alias weights must have positive sum");

  normalized_.resize(n);
  for (std::size_t i = 0; i < n; ++i) normalized_[i] = weights[i] / total;

  prob_.assign(n, 0.0);
  alias_.assign(n, 0);

  // Scaled probabilities; split into under- and over-full buckets.
  std::vector<double> scaled(n);
  for (std::size_t i = 0; i < n; ++i) scaled[i] = normalized_[i] * static_cast<double>(n);

  std::vector<std::uint32_t> small, large;
  small.reserve(n);
  large.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    (scaled[i] < 1.0 ? small : large).push_back(static_cast<std::uint32_t>(i));
  }

  while (!small.empty() && !large.empty()) {
    const std::uint32_t s = small.back();
    small.pop_back();
    const std::uint32_t l = large.back();
    prob_[s] = scaled[s];
    alias_[s] = l;
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    if (scaled[l] < 1.0) {
      large.pop_back();
      small.push_back(l);
    }
  }
  // Numerical leftovers become certain acceptances.
  for (std::uint32_t i : large) prob_[i] = 1.0;
  for (std::uint32_t i : small) prob_[i] = 1.0;
}

std::size_t AliasSampler::sample(Rng& rng) const {
  const std::size_t column = static_cast<std::size_t>(rng.below(prob_.size()));
  return rng.uniform01() < prob_[column] ? column : alias_[column];
}

double sample_exponential(Rng& rng, double rate) {
  DBS_CHECK(rate > 0.0);
  // Inversion; uniform01() < 1 so the log argument is strictly positive.
  return -std::log(1.0 - rng.uniform01()) / rate;
}

}  // namespace dbs
