#include "baselines/ordered_dp.h"

#include <limits>
#include <utility>

#include "common/check.h"
#include "core/partition.h"

namespace dbs {

Allocation ordered_dp_optimal(const Database& db, ChannelId channels,
                              ItemOrdering ordering) {
  const std::size_t n = db.size();
  DBS_CHECK(channels >= 1);
  DBS_CHECK_MSG(channels <= n, "cannot fill more channels than items");

  const std::vector<ItemId> order = ordered_ids(db, ordering);
  const PrefixSums sums = ordered_prefix(db, ordering, order);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<std::vector<double>> dp(channels + 1, std::vector<double>(n + 1, kInf));
  std::vector<std::vector<std::size_t>> cut(channels + 1,
                                            std::vector<std::size_t>(n + 1, 0));
  dp[0][0] = 0.0;
  for (ChannelId k = 1; k <= channels; ++k) {
    for (std::size_t i = k; i <= n; ++i) {
      for (std::size_t j = k - 1; j < i; ++j) {
        if (dp[k - 1][j] == kInf) continue;
        const double candidate = dp[k - 1][j] + sums.cost_of(j, i);
        if (candidate < dp[k][i]) {
          dp[k][i] = candidate;
          cut[k][i] = j;
        }
      }
    }
  }

  std::vector<ChannelId> assignment(n, 0);
  std::size_t end = n;
  for (ChannelId k = channels; k >= 1; --k) {
    const std::size_t begin = cut[k][end];
    for (std::size_t i = begin; i < end; ++i) {
      assignment[order[i]] = static_cast<ChannelId>(k - 1);
    }
    end = begin;
  }
  DBS_CHECK(end == 0);
  return Allocation(db, channels, std::move(assignment));
}

}  // namespace dbs
