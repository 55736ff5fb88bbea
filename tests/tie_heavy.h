// Tie-heavy integer catalogues for the CDS tests. Integer sizes and
// frequencies make exact load ties between channels, and between items of
// equal benefit ratio, common; zero frequencies (about a third) sort to the
// end of the benefit order; and after normalization many loads tie only up
// to rounding, which blurs hull thresholds.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "model/database.h"

namespace dbs {

struct TieHeavyInstance {
  Database db;
  ChannelId channels;
  std::vector<ChannelId> scattered;  ///< a random start on `channels`
};

/// \brief Draws 2–80 items on 2–31 channels.
inline TieHeavyInstance draw_tie_heavy_instance(Rng& rng) {
  const std::size_t n = 2 + static_cast<std::size_t>(rng.below(79));
  std::vector<double> sizes(n);
  std::vector<double> freqs(n);
  for (std::size_t i = 0; i < n; ++i) {
    sizes[i] = static_cast<double>(rng.between(1, 5));
    freqs[i] = rng.chance(1.0 / 3.0) ? 0.0 : static_cast<double>(rng.between(1, 7));
  }
  if (std::all_of(freqs.begin(), freqs.end(), [](double f) { return f == 0.0; })) {
    freqs[static_cast<std::size_t>(rng.below(n))] = 1.0;
  }
  Database db(std::move(sizes), std::move(freqs));
  const auto k = static_cast<ChannelId>(rng.between(2, 31));
  std::vector<ChannelId> scattered(n);
  for (auto& c : scattered) c = static_cast<ChannelId>(rng.below(k));
  return TieHeavyInstance{std::move(db), k, std::move(scattered)};
}

}  // namespace dbs
