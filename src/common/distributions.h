// Sampling distributions used by workload generation and the simulator.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace dbs {

/// Exact Zipf probability vector: p_i = (1/i)^theta / sum_j (1/j)^theta for
/// ranks i = 1..n. theta = 0 yields the uniform distribution; larger theta
/// skews mass toward low ranks. This is the frequency model of the paper
/// (§4.1, citing Zipf 1949).
std::vector<double> zipf_probabilities(std::size_t n, double theta);

/// O(1) sampling from an arbitrary discrete distribution via Walker's alias
/// method. Construction is O(n). Probabilities need not be normalized; they
/// must be non-negative with a positive sum.
class AliasSampler {
 public:
  explicit AliasSampler(const std::vector<double>& weights);

  /// Draws an index in [0, size()) with probability proportional to its weight.
  std::size_t sample(Rng& rng) const;

  std::size_t size() const { return prob_.size(); }

  /// Normalized probability of index i (for testing / inspection).
  double probability(std::size_t i) const { return normalized_[i]; }

 private:
  std::vector<double> prob_;          // alias-table acceptance probabilities
  std::vector<std::uint32_t> alias_;  // alias targets
  std::vector<double> normalized_;    // normalized input distribution
};

/// Exponential inter-arrival sampler with the given rate (events per unit
/// time). Used by the simulator's client arrival process.
double sample_exponential(Rng& rng, double rate);

}  // namespace dbs
