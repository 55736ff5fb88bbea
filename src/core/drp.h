// Algorithm DRP — Dimension Reduction Partitioning (paper §3.1).
//
// Top-down group splitting: items are ordered by benefit ratio f/z
// descending; a max priority queue holds the current groups keyed by group
// cost F·Z; each iteration pops the costliest splittable group and splits it
// at the optimal contiguous point (Procedure Partition) until K groups exist.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/partition.h"
#include "model/allocation.h"
#include "model/database.h"

namespace dbs {

/// Which group DRP selects for the next split. The paper always splits the
/// max-cost group; the alternatives exist for the ablation study.
enum class SplitSelection {
  kMaxCost,   ///< paper's rule: split the group with the largest F·Z
  kMaxSize,   ///< split the group with the largest aggregate size Z
  kMaxCount,  ///< split the group with the most items
};

/// Item ordering used before partitioning. The paper's dimension reduction
/// uses the benefit ratio; the alternatives exist for the ablation study.
enum class ItemOrdering {
  kBenefitRatioDesc,  ///< paper's rule: f/z descending
  kFreqDesc,          ///< frequency-only (the conventional environment's view)
  kSizeAsc,           ///< size ascending (size-only view)
};

/// \brief The item ids of `db` in the given ordering, ties broken by id.
/// kBenefitRatioDesc copies the Database's cached benefit_order(); the
/// ablation orderings sort afresh.
std::vector<ItemId> ordered_ids(const Database& db, ItemOrdering ordering);

/// \brief PrefixSums over `order`, which must be ordered_ids(db, ordering).
/// kBenefitRatioDesc streams the Database's rank-major columns; the
/// ablation orderings gather f and z by id. Both give the same sums bit for
/// bit.
PrefixSums ordered_prefix(const Database& db, ItemOrdering ordering,
                          std::span<const ItemId> order);

/// DRP tuning knobs; defaults reproduce the paper exactly.
struct DrpOptions {
  SplitSelection selection = SplitSelection::kMaxCost;
  ItemOrdering ordering = ItemOrdering::kBenefitRatioDesc;
};

/// One group produced by DRP, expressed as a slice of its item order:
/// ordered_ids(db, options.ordering), which for the paper's ordering is
/// db.benefit_order().
struct DrpGroup {
  std::size_t begin = 0;  ///< first position in the order
  std::size_t end = 0;    ///< one past the last position
  double cost = 0.0;      ///< F·Z of the slice
};

/// Full DRP output: the channel allocation plus the group structure in split
/// order (useful for tests and for reproducing the paper's Table 3).
struct DrpResult {
  Allocation allocation;
  std::vector<DrpGroup> groups;  ///< final groups, sorted by begin index
  std::size_t splits = 0;        ///< number of split operations (= K − 1)
};

/// \brief Runs DRP, producing K groups. Requires 1 ≤ K ≤ N. Complexity
/// O(N log N) for the sort plus O(K·(log K + N)) for the splits (Lemma 1).
DrpResult run_drp(const Database& db, ChannelId channels,
                  const DrpOptions& options = {});

}  // namespace dbs
