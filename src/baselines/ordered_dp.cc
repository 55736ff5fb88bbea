#include "baselines/ordered_dp.h"

#include <limits>

#include "common/check.h"

namespace dbs {

std::vector<ChannelId> contiguous_optimum(std::span<const ItemId> order,
                                          const PrefixSums& sums, ChannelId channels) {
  const std::size_t n = order.size();
  DBS_CHECK(channels >= 1);
  DBS_CHECK_MSG(channels <= n, "cannot fill more channels than items");
  DBS_CHECK_MSG(sums.items() == n,
                "prefix sums cover " << sums.items() << " of " << n << " items");

  constexpr double kInf = std::numeric_limits<double>::infinity();
  // dp[k][i]: min cost of cutting the first i items into k runs; cut[k][i]:
  // where the last of those runs starts.
  std::vector<std::vector<double>> dp(channels + 1, std::vector<double>(n + 1, kInf));
  std::vector<std::vector<std::size_t>> cut(channels + 1,
                                            std::vector<std::size_t>(n + 1, 0));
  dp[0][0] = 0.0;
  for (ChannelId k = 1; k <= channels; ++k) {
    const std::vector<double>& prev = dp[k - 1];
    std::vector<std::size_t>& cut_k = cut[k];
    for (std::size_t i = k; i <= n; ++i) {
      // The running minimum stays in a local: a store to dp[k][i] could
      // alias prev and the prefix sums, which would force reloads in the j
      // loop. Its cut is still stored on each improvement, which keeps the
      // test a predicted branch; with both in locals GCC selects them
      // without one, a chain of dependent minima that ran 15% slower.
      double best = kInf;
      for (std::size_t j = k - 1; j < i; ++j) {
        if (prev[j] == kInf) continue;
        const double candidate = prev[j] + sums.cost_of(j, i);
        if (candidate < best) {
          best = candidate;
          cut_k[i] = j;
        }
      }
      dp[k][i] = best;
    }
  }

  std::vector<ChannelId> assignment(n, 0);
  std::size_t end = n;
  for (ChannelId k = channels; k >= 1; --k) {
    const std::size_t begin = cut[k][end];
    for (std::size_t i = begin; i < end; ++i) {
      DBS_CHECK_MSG(order[i] < n, "order names unknown item " << order[i]);
      assignment[order[i]] = static_cast<ChannelId>(k - 1);
    }
    end = begin;
  }
  DBS_CHECK(end == 0);
  return assignment;
}

Allocation ordered_dp_optimal(const Database& db, ChannelId channels,
                              ItemOrdering ordering) {
  // dbs-lint: contract delegated to contiguous_optimum
  const std::vector<ItemId> order = ordered_ids(db, ordering);
  const PrefixSums sums = ordered_prefix(db, ordering, order);
  return Allocation(db, channels, contiguous_optimum(order, sums, channels));
}

}  // namespace dbs
