// Optimal contiguous partition under the true diverse cost function.
//
// DRP restricts itself to contiguous groups of the benefit-ratio order and
// finds them greedily (top-down splitting). This DP computes the *best
// possible* contiguous partition of the same order, so it bounds from below
// what any split strategy operating on that order can achieve — the natural
// quality yardstick for the DRP ablations. VF^K (baselines/vfk.h) runs the
// same DP over the frequency order with every size one.
#pragma once

#include <span>
#include <vector>

#include "core/drp.h"
#include "core/partition.h"
#include "model/allocation.h"
#include "model/database.h"

namespace dbs {

/// \brief Exact minimum of Σ_r sums.cost_of(run r) over every cut of
/// `order` into `channels` non-empty contiguous runs, as an assignment by
/// item id: the items of run r go to channel r. `sums` prices the order
/// position by position, so sums.items() == order.size(), and `order` lists
/// the ids 0..N−1 once each. Requires 1 ≤ channels ≤ N. Among equal costs
/// the smallest cut point wins. O(K·N²) time, O(K·N) space.
std::vector<ChannelId> contiguous_optimum(std::span<const ItemId> order,
                                          const PrefixSums& sums, ChannelId channels);

/// Exact minimum-cost partition of the items into K contiguous runs of the
/// given ordering (default: the paper's benefit-ratio order), minimizing the
/// true objective Σ_i F_i·Z_i. O(K·N²) time, O(K·N) space.
Allocation ordered_dp_optimal(const Database& db, ChannelId channels,
                              ItemOrdering ordering = ItemOrdering::kBenefitRatioDesc);

}  // namespace dbs
