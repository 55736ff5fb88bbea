#include "workload/drift.h"

#include <utility>
#include <vector>

#include "common/check.h"

namespace dbs {

Database drift_frequencies(const Database& db, Rng& rng, const DriftConfig& config) {
  DBS_CHECK(config.intensity >= 0.0 && config.intensity <= 1.0);
  std::vector<double> freqs(db.freqs().begin(), db.freqs().end());
  for (std::size_t transfer = 0; transfer < config.transfers; ++transfer) {
    const std::size_t from = static_cast<std::size_t>(rng.below(db.size()));
    const std::size_t to = static_cast<std::size_t>(rng.below(db.size()));
    const double moved = config.intensity * freqs[from];
    freqs[from] -= moved;
    freqs[to] += moved;
  }
  return Database(std::vector<double>(db.sizes().begin(), db.sizes().end()),
                  std::move(freqs));
}

}  // namespace dbs
