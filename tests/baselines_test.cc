#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "baselines/flat.h"
#include "baselines/greedy.h"
#include "baselines/ordered_dp.h"
#include "baselines/vfk.h"
#include "common/check.h"
#include "common/rng.h"
#include "core/drp.h"
#include "core/drp_cds.h"
#include "workload/generator.h"

namespace dbs {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// The DP loop VF^K and OrderedDp each ran before they shared
// contiguous_optimum, kept as the reference both must match bit for bit.
// run_cost(a, b) prices the run [a, b) of `order`.
template <class RunCost>
std::vector<ChannelId> reference_dp(std::span<const ItemId> order, ChannelId channels,
                                    RunCost run_cost) {
  const std::size_t n = order.size();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<std::vector<double>> dp(channels + 1, std::vector<double>(n + 1, kInf));
  std::vector<std::vector<std::size_t>> cut(channels + 1,
                                            std::vector<std::size_t>(n + 1, 0));
  dp[0][0] = 0.0;
  for (ChannelId k = 1; k <= channels; ++k) {
    for (std::size_t i = k; i <= n; ++i) {
      for (std::size_t j = k - 1; j < i; ++j) {
        if (dp[k - 1][j] == kInf) continue;
        const double candidate = dp[k - 1][j] + run_cost(j, i);
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
  return assignment;
}

// VF^K's own pricing: the frequency prefix over the frequency order times
// the run's item count.
std::vector<ChannelId> reference_vfk(const Database& db, ChannelId channels) {
  const std::vector<ItemId> order = db.ids_by_freq_desc();
  std::vector<double> pf(order.size() + 1, 0.0);
  for (std::size_t i = 0; i < order.size(); ++i) {
    pf[i + 1] = pf[i] + db.item(order[i]).freq;
  }
  return reference_dp(order, channels, [&](std::size_t a, std::size_t b) {
    return (pf[b] - pf[a]) * static_cast<double>(b - a);
  });
}

// OrderedDp's own pricing: PrefixSums::cost_of over the ordering.
std::vector<ChannelId> reference_ordered_dp(const Database& db, ChannelId channels,
                                            ItemOrdering ordering) {
  const std::vector<ItemId> order = ordered_ids(db, ordering);
  const PrefixSums sums = ordered_prefix(db, ordering, order);
  return reference_dp(order, channels,
                      [&](std::size_t a, std::size_t b) { return sums.cost_of(a, b); });
}

// Generated catalogues, and tie-heavy integer ones with zero frequencies
// (exact cost ties between cuts are common there), for N from 1 to 300.
std::vector<std::pair<std::string, Database>> dp_catalogues() {
  std::vector<std::pair<std::string, Database>> out;
  Rng rng(2203);
  for (const std::size_t n : {1, 2, 3, 8, 33, 120, 300}) {
    out.emplace_back("generated n=" + std::to_string(n),
                     generate_database({.items = n, .skewness = 0.9, .diversity = 2.0,
                                        .seed = 1000 + n}));
    std::vector<double> sizes(n);
    std::vector<double> freqs(n);
    for (std::size_t i = 0; i < n; ++i) {
      sizes[i] = static_cast<double>(1 + rng.below(3));
      freqs[i] = static_cast<double>(rng.below(3));
    }
    freqs[0] = 1.0;  // a positive total
    out.emplace_back("integers n=" + std::to_string(n),
                     Database(std::move(sizes), std::move(freqs)));
  }
  return out;
}

std::vector<ChannelId> dp_channel_counts(std::size_t n) {
  std::vector<ChannelId> counts;
  for (const std::size_t k : {std::size_t{1}, std::size_t{2}, std::size_t{5}, n}) {
    if (k <= n && (counts.empty() || counts.back() < k)) {
      counts.push_back(static_cast<ChannelId>(k));
    }
  }
  return counts;
}

TEST(FlatRoundRobin, SpreadsItemsEvenly) {
  const Database db = generate_database({.items = 12, .seed = 1});
  const Allocation alloc = flat_round_robin(db, 4);
  for (ChannelId c = 0; c < 4; ++c) EXPECT_EQ(alloc.count_of(c), 3u);
  EXPECT_EQ(alloc.channel_of(0), 0u);
  EXPECT_EQ(alloc.channel_of(5), 1u);
}

TEST(FlatRoundRobin, MoreChannelsThanItemsLeavesEmpties) {
  const Database db = generate_database({.items = 3, .seed = 2});
  const Allocation alloc = flat_round_robin(db, 5);
  EXPECT_EQ(alloc.count_of(3), 0u);
  EXPECT_EQ(alloc.count_of(4), 0u);
}

TEST(FlatSizeBalanced, BalancesAggregateSizes) {
  const Database db = generate_database({.items = 100, .diversity = 2.0, .seed = 3});
  const Allocation alloc = flat_size_balanced(db, 5);
  double min_z = alloc.size_of(0);
  double max_z = alloc.size_of(0);
  for (ChannelId c = 1; c < 5; ++c) {
    min_z = std::min(min_z, alloc.size_of(c));
    max_z = std::max(max_z, alloc.size_of(c));
  }
  // LPT keeps the spread within the largest single item.
  double max_item = 0.0;
  for (const Item& it : db.items()) max_item = std::max(max_item, it.size);
  EXPECT_LE(max_z - min_z, max_item + 1e-9);
}

TEST(Greedy, ValidPartitionAndBeatsRoundRobinOnAverage) {
  // On any single draw greedy can lose to round-robin by a hair (it is
  // myopic); across seeds it must win clearly.
  double greedy_total = 0.0;
  double flat_total = 0.0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const Database db = generate_database({.items = 120, .skewness = 1.0,
                                           .diversity = 2.0, .seed = seed});
    const Allocation greedy = greedy_insertion(db, 6);
    std::string error;
    EXPECT_TRUE(greedy.validate(&error)) << error;
    greedy_total += greedy.cost();
    flat_total += flat_round_robin(db, 6).cost();
  }
  EXPECT_LT(greedy_total, flat_total);
}

TEST(Greedy, FillsAllChannelsWhenSkewed) {
  const Database db = generate_database({.items = 60, .skewness = 1.2,
                                         .diversity = 2.0, .seed = 5});
  const Allocation greedy = greedy_insertion(db, 4);
  for (ChannelId c = 0; c < 4; ++c) EXPECT_GT(greedy.count_of(c), 0u);
}

TEST(Vfk, ValidPartitionWithAllChannelsUsed) {
  const Database db = generate_database({.items = 80, .seed = 6});
  const Allocation alloc = run_vfk(db, 6);
  std::string error;
  EXPECT_TRUE(alloc.validate(&error)) << error;
  for (ChannelId c = 0; c < 6; ++c) EXPECT_GT(alloc.count_of(c), 0u);
}

TEST(Vfk, GroupsAreContiguousInFrequencyOrder) {
  const Database db = generate_database({.items = 50, .skewness = 1.0, .seed = 7});
  const Allocation alloc = run_vfk(db, 5);
  const auto order = db.ids_by_freq_desc();
  // Channel indices must be non-decreasing along the frequency order.
  ChannelId prev = alloc.channel_of(order[0]);
  for (ItemId idx = 1; idx < order.size(); ++idx) {
    const ChannelId c = alloc.channel_of(order[idx]);
    EXPECT_GE(c, prev);
    prev = c;
  }
}

TEST(Vfk, OptimalUnderEqualSizes) {
  // With Φ = 0 (all sizes 1) VF^K solves the true objective exactly, so no
  // algorithm restricted to the same problem may beat it.
  const Database db = generate_database({.items = 40, .skewness = 1.0,
                                         .diversity = 0.0, .seed = 8});
  const double vfk = run_vfk(db, 4).cost();
  const double drpcds = run_drp_cds(db, 4).final_cost;
  EXPECT_LE(vfk, drpcds + 1e-9);
}

TEST(Vfk, SuffersUnderHighDiversity) {
  // The paper's headline: frequency-only allocation degrades as Φ grows.
  double vfk_total = 0.0;
  double drp_total = 0.0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const Database db = generate_database({.items = 100, .skewness = 0.8,
                                           .diversity = 3.0, .seed = seed});
    vfk_total += run_vfk(db, 6).cost();
    drp_total += run_drp_cds(db, 6).final_cost;
  }
  EXPECT_GT(vfk_total, 1.15 * drp_total);
}

TEST(Vfk, SingleChannelAndKEqualsN) {
  const Database db = generate_database({.items = 10, .seed = 9});
  EXPECT_EQ(run_vfk(db, 1).count_of(0), 10u);
  const Allocation singletons = run_vfk(db, 10);
  for (ChannelId c = 0; c < 10; ++c) EXPECT_EQ(singletons.count_of(c), 1u);
}

TEST(Vfk, RejectsTooManyChannels) {
  const Database db = generate_database({.items = 4, .seed = 10});
  EXPECT_THROW(run_vfk(db, 5), ContractViolation);
}

TEST(Vfk, MatchesItsFrequencyCountDpLoop) {
  for (const auto& [name, db] : dp_catalogues()) {
    for (const ChannelId k : dp_channel_counts(db.size())) {
      const Allocation vfk = run_vfk(db, k);
      const Allocation reference(db, k, reference_vfk(db, k));
      EXPECT_EQ(vfk.assignment(), reference.assignment()) << name << " k=" << k;
      EXPECT_EQ(bits(vfk.cost()), bits(reference.cost())) << name << " k=" << k;
    }
  }
}

TEST(OrderedDp, MatchesItsDpLoopUnderEveryOrdering) {
  for (const auto& [name, db] : dp_catalogues()) {
    for (const ItemOrdering ordering :
         {ItemOrdering::kBenefitRatioDesc, ItemOrdering::kFreqDesc,
          ItemOrdering::kSizeAsc}) {
      for (const ChannelId k : dp_channel_counts(db.size())) {
        const std::string context = name + " ordering=" +
                                    std::to_string(static_cast<int>(ordering)) +
                                    " k=" + std::to_string(k);
        const Allocation dp = ordered_dp_optimal(db, k, ordering);
        const Allocation reference(db, k, reference_ordered_dp(db, k, ordering));
        EXPECT_EQ(dp.assignment(), reference.assignment()) << context;
        EXPECT_EQ(bits(dp.cost()), bits(reference.cost())) << context;
      }
    }
  }
}

TEST(ContiguousOptimum, RejectsBadChannelCountsAndMismatchedSums) {
  const Database db = generate_database({.items = 6, .seed = 14});
  const std::vector<ItemId>& order = db.benefit_order();
  const PrefixSums sums(db, order);
  EXPECT_EQ(contiguous_optimum(order, sums, 6).size(), 6u);
  EXPECT_THROW(contiguous_optimum(order, sums, 0), ContractViolation);
  EXPECT_THROW(contiguous_optimum(order, sums, 7), ContractViolation);
  const std::span<const ItemId> first_five = std::span(order).first(5);
  const PrefixSums five(db, first_five);
  EXPECT_THROW(contiguous_optimum(order, five, 2), ContractViolation);
  EXPECT_THROW(contiguous_optimum(first_five, sums, 2), ContractViolation);
  const std::vector<ItemId> unknown = {0, 1, 2, 3, 4, 6};
  EXPECT_THROW(contiguous_optimum(unknown, sums, 2), ContractViolation);
}

TEST(OrderedDp, NeverWorseThanDrpOnSameOrder) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Database db = generate_database({.items = 70, .skewness = 0.9,
                                           .diversity = 2.0, .seed = seed});
    const double dp = ordered_dp_optimal(db, 6).cost();
    const double drp = run_drp(db, 6).allocation.cost();
    EXPECT_LE(dp, drp + 1e-9) << "seed " << seed;
  }
}

TEST(OrderedDp, ContiguousInBrOrder) {
  const Database db = generate_database({.items = 45, .seed = 11});
  const Allocation alloc = ordered_dp_optimal(db, 5);
  const auto& order = db.benefit_order();
  ChannelId prev = alloc.channel_of(order[0]);
  for (std::size_t i = 1; i < order.size(); ++i) {
    const ChannelId c = alloc.channel_of(order[i]);
    EXPECT_GE(c, prev);
    prev = c;
  }
}

TEST(OrderedDp, MatchesBestSplitForTwoChannels) {
  const Database db = generate_database({.items = 30, .seed = 12});
  const double dp = ordered_dp_optimal(db, 2).cost();
  const double drp = run_drp(db, 2).allocation.cost();
  // For K=2 DRP's single split is already optimal among contiguous splits.
  EXPECT_NEAR(dp, drp, 1e-9);
}

TEST(AllBaselines, EveryChannelCountProducesValidPartitions) {
  const Database db = generate_database({.items = 30, .diversity = 1.5, .seed = 13});
  for (ChannelId k = 1; k <= 10; ++k) {
    for (const Allocation& alloc :
         {flat_round_robin(db, k), flat_size_balanced(db, k), greedy_insertion(db, k),
          run_vfk(db, k), ordered_dp_optimal(db, k)}) {
      std::string error;
      EXPECT_TRUE(alloc.validate(&error)) << "k=" << k << ": " << error;
    }
  }
}

}  // namespace
}  // namespace dbs
