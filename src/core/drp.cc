#include "core/drp.h"

#include <algorithm>
#include <numeric>
#include <queue>

#include "common/check.h"
#include "core/partition.h"
#include "obs/obs.h"

namespace dbs {

std::vector<ItemId> ordered_ids(const Database& db, ItemOrdering ordering) {
  switch (ordering) {
    case ItemOrdering::kBenefitRatioDesc:
      return db.benefit_order();
    case ItemOrdering::kFreqDesc:
      return db.ids_by_freq_desc();
    case ItemOrdering::kSizeAsc: {
      std::vector<ItemId> ids(db.size());
      std::iota(ids.begin(), ids.end(), 0);
      std::stable_sort(ids.begin(), ids.end(), [&db](ItemId a, ItemId b) {
        if (db.item(a).size != db.item(b).size) return db.item(a).size < db.item(b).size;
        return a < b;
      });
      return ids;
    }
  }
  DBS_CHECK_MSG(false, "unknown ItemOrdering");
  return {};
}

PrefixSums ordered_prefix(const Database& db, ItemOrdering ordering,
                          std::span<const ItemId> order) {
  DBS_CHECK_MSG(order.size() == db.size(),
                "order lists " << order.size() << " of " << db.size() << " items");
  if (ordering == ItemOrdering::kBenefitRatioDesc) {
    return PrefixSums(db.benefit_freqs(), db.benefit_sizes());
  }
  return PrefixSums(db, order);
}

namespace {

/// Priority of a group under the configured selection rule.
double selection_key(const DrpGroup& g, SplitSelection selection,
                     const PrefixSums& sums) {
  switch (selection) {
    case SplitSelection::kMaxCost:
      return g.cost;
    case SplitSelection::kMaxSize:
      return sums.size_of(g.begin, g.end);
    case SplitSelection::kMaxCount:
      return static_cast<double>(g.end - g.begin);
  }
  DBS_CHECK_MSG(false, "unknown SplitSelection");
  return 0.0;
}

}  // namespace

DrpResult run_drp(const Database& db, ChannelId channels, const DrpOptions& options) {
  DBS_OBS_SPAN("core.drp.run");
  const std::size_t n = db.size();
  DBS_CHECK_MSG(channels >= 1, "need at least one channel");
  DBS_CHECK_MSG(channels <= n,
                "cannot fill " << channels << " channels with only " << n << " items");

  // The paper's order is the Database's own; only the ablation orderings
  // sort a copy.
  std::vector<ItemId> ablation_order;
  std::span<const ItemId> order = db.benefit_order();
  if (options.ordering != ItemOrdering::kBenefitRatioDesc) {
    ablation_order = ordered_ids(db, options.ordering);
    order = ablation_order;
  }
  const PrefixSums sums = ordered_prefix(db, options.ordering, order);

  struct QueueEntry {
    double key;
    DrpGroup group;
    bool operator<(const QueueEntry& other) const {
      // Deterministic max-heap: larger key first, earlier slice on ties.
      if (key != other.key) return key < other.key;
      return group.begin > other.group.begin;
    }
  };

  // MaxPQ of splittable groups; singletons go straight to `done` since no
  // split can ever apply to them.
  std::priority_queue<QueueEntry> max_pq;
  std::vector<DrpGroup> done;

  auto push_group = [&](std::size_t begin, std::size_t end) {
    DrpGroup g{begin, end, sums.cost_of(begin, end)};
    if (end - begin < 2) {
      done.push_back(g);
    } else {
      max_pq.push(QueueEntry{selection_key(g, options.selection, sums), g});
    }
  };

  push_group(0, n);

  std::size_t group_count = 1;
  std::size_t splits = 0;
  while (group_count < channels) {
    // K ≤ N guarantees some multi-item group remains while group_count < K.
    DBS_CHECK(!max_pq.empty());
    const DrpGroup g = max_pq.top().group;
    max_pq.pop();
    const SplitResult split = best_split(sums, g.begin, g.end);
    push_group(g.begin, split.split);
    push_group(split.split, g.end);
    ++group_count;
    ++splits;
  }

  while (!max_pq.empty()) {
    done.push_back(max_pq.top().group);
    max_pq.pop();
  }
  std::sort(done.begin(), done.end(),
            [](const DrpGroup& a, const DrpGroup& b) { return a.begin < b.begin; });

  std::vector<ChannelId> assignment(n, 0);
  for (std::size_t gi = 0; gi < done.size(); ++gi) {
    for (std::size_t i = done[gi].begin; i < done[gi].end; ++i) {
      assignment[order[i]] = static_cast<ChannelId>(gi);
    }
  }

  DBS_OBS_COUNTER_INC("core.drp.runs");
  DBS_OBS_COUNTER_ADD("core.drp.splits", splits);
  for (const DrpGroup& g : done) {
    DBS_OBS_HISTOGRAM_OBSERVE("core.drp.group_items", g.end - g.begin);
  }

  return DrpResult{Allocation(db, channels, std::move(assignment)), std::move(done),
                   splits};
}

}  // namespace dbs
