#include "workload/generator.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/distributions.h"

namespace dbs {

double sample_item_size(Rng& rng, double diversity) {
  DBS_CHECK(diversity >= 0.0);
  return std::pow(10.0, rng.uniform(0.0, diversity));
}

namespace {

/// Standard normal via Box–Muller (one draw per call; simple and exact).
double sample_standard_normal(Rng& rng) {
  const double u1 = 1.0 - rng.uniform01();  // (0, 1]
  const double u2 = rng.uniform01();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * 3.14159265358979323846 * u2);
}

}  // namespace

double sample_item_size_model(Rng& rng, const WorkloadConfig& config) {
  DBS_CHECK(config.diversity >= 0.0);
  switch (config.size_model) {
    case SizeModel::kUniformExponent:
      return sample_item_size(rng, config.diversity);
    case SizeModel::kLognormal: {
      const double exponent = config.diversity / 2.0 +
                              kLognormalSigma * sample_standard_normal(rng);
      // Clamp to a sane positive range so a deep tail draw cannot produce a
      // subnormal or astronomically large object.
      return std::pow(10.0, std::clamp(exponent, -1.0, config.diversity + 1.0));
    }
    case SizeModel::kBimodal: {
      if (rng.chance(kBimodalMediaShare)) {
        return std::pow(10.0, rng.uniform(0.75 * config.diversity, config.diversity));
      }
      return std::pow(10.0, rng.uniform(0.0, 0.25 * config.diversity));
    }
  }
  DBS_CHECK_MSG(false, "unknown SizeModel");
  return 1.0;
}

Database generate_database(const WorkloadConfig& config) {
  DBS_CHECK_MSG(config.items > 0, "workload needs at least one item");
  DBS_CHECK_MSG(config.skewness >= 0.0, "Zipf skewness must be non-negative");
  Rng rng(config.seed);

  std::vector<double> freqs = zipf_probabilities(config.items, config.skewness);
  std::vector<double> sizes(config.items);
  for (double& size : sizes) size = sample_item_size_model(rng, config);

  // Fisher–Yates over the items, swapping both columns with the same draw,
  // so that frequency rank is independent of input position.
  for (std::size_t i = config.items; i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(rng.below(i));
    std::swap(freqs[i - 1], freqs[j]);
    std::swap(sizes[i - 1], sizes[j]);
  }

  return Database(std::move(sizes), std::move(freqs));
}

}  // namespace dbs
