#include <gtest/gtest.h>

#include "baselines/flat.h"
#include "baselines/greedy.h"
#include "baselines/ordered_dp.h"
#include "baselines/vfk.h"
#include "common/check.h"
#include "core/drp.h"
#include "core/drp_cds.h"
#include "workload/generator.h"

namespace dbs {
namespace {

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
