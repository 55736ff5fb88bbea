// Synthetic workload generation matching the paper's simulation environment
// (§4.1, Table 5): Zipf(θ) access frequencies over N items, item sizes
// 10^φ with φ uniform over [0, Φ].
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/rng.h"
#include "model/database.h"

namespace dbs {

/// Item-size families. The paper's model is kUniformExponent; the others are
/// realistic alternatives for robustness studies: web-object sizes are
/// approximately lognormal, and the paper's motivating catalogue (text plus
/// multimedia) is bimodal.
enum class SizeModel {
  kUniformExponent,  ///< paper §4.1: size = 10^U[0, Φ]
  kLognormal,        ///< exp(N(μ, σ²)), parameterized to match the paper's mean exponent
  kBimodal,          ///< small "text" items with a heavy "media" minority
};

/// σ of the log10-size under kLognormal.
inline constexpr double kLognormalSigma = 0.8;

/// Share of heavy "media" items under kBimodal.
inline constexpr double kBimodalMediaShare = 0.2;

/// Parameters of one synthetic broadcast database.
struct WorkloadConfig {
  std::size_t items = 120;    ///< N — number of broadcast items
  double skewness = 0.8;      ///< θ — Zipf skewness parameter
  double diversity = 2.0;     ///< Φ — scale of the size distribution (see model)
  std::uint64_t seed = 1;     ///< PRNG seed; same seed ⇒ same database
  SizeModel size_model = SizeModel::kUniformExponent;
};

/// Generates a database per the paper's model. Frequencies follow the exact
/// Zipf law over ranks 1..N; each item's size is 10^φ, φ ~ U[0, Φ].
/// With Φ = 0 every item has size 1 (the conventional environment).
///
/// The rank-to-item mapping is a seeded permutation, so popularity and the
/// arbitrary input order are independent; Database::ids_by_freq_desc()
/// lists the items by rank.
Database generate_database(const WorkloadConfig& config);

/// Draws one diverse item size 10^U[0, diversity] (the paper's model).
double sample_item_size(Rng& rng, double diversity);

/// Draws one size from the configured family. For kUniformExponent this is
/// sample_item_size; for kLognormal, 10^N(Φ/2, kLognormalSigma²) — same mean
/// exponent as the paper's model; for kBimodal, a small item in
/// [1, 10^(Φ/4)] with probability 1 − kBimodalMediaShare, else a heavy one in
/// [10^(3Φ/4), 10^Φ].
double sample_item_size_model(Rng& rng, const WorkloadConfig& config);

}  // namespace dbs
