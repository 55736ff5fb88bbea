#include "baselines/vfk.h"

#include <vector>

#include "baselines/ordered_dp.h"

namespace dbs {

Allocation run_vfk(const Database& db, ChannelId channels) {
  // dbs-lint: contract delegated to contiguous_optimum
  // Every size is one, so a run's aggregate size is its item count N_i, and
  // exactly so: prefix sums of ones are integers. The DP then minimizes
  // Σ F_i·N_i over the frequency order.
  const std::vector<ItemId> order = db.ids_by_freq_desc();
  std::vector<double> freqs(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) freqs[i] = db.freqs()[order[i]];
  const PrefixSums sums(freqs, std::vector<double>(order.size(), 1.0));
  return Allocation(db, channels, contiguous_optimum(order, sums, channels));
}

}  // namespace dbs
