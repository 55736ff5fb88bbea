#include "core/drp.h"

#include <gtest/gtest.h>

#include <set>

#include "baselines/flat.h"
#include "common/check.h"
#include "workload/generator.h"

namespace dbs {
namespace {

TEST(Drp, ProducesExactlyKGroups) {
  const Database db = generate_database({.items = 50, .seed = 1});
  for (ChannelId k : {1u, 2u, 5u, 9u}) {
    const DrpResult r = run_drp(db, k);
    EXPECT_EQ(r.groups.size(), k);
    EXPECT_EQ(r.splits, k - 1);
    EXPECT_EQ(r.allocation.channels(), k);
    // Every channel non-empty: DRP splits non-empty slices.
    for (ChannelId c = 0; c < k; ++c) EXPECT_GT(r.allocation.count_of(c), 0u);
  }
}

TEST(Drp, SingleChannelIsWholeDatabase) {
  const Database db = generate_database({.items = 20, .seed = 2});
  const DrpResult r = run_drp(db, 1);
  EXPECT_EQ(r.allocation.count_of(0), 20u);
  EXPECT_NEAR(r.allocation.cost(), db.total_size(), 1e-9);  // F=1 ⇒ cost=Z
}

TEST(Drp, KEqualsNGivesSingletons) {
  const Database db = generate_database({.items = 12, .seed = 3});
  const DrpResult r = run_drp(db, 12);
  for (ChannelId c = 0; c < 12; ++c) EXPECT_EQ(r.allocation.count_of(c), 1u);
}

TEST(Drp, GroupsAreContiguousInBrOrder) {
  const Database db = generate_database({.items = 80, .diversity = 2.0, .seed = 4});
  const DrpResult r = run_drp(db, 7);
  // Groups tile [0, N) without gaps or overlaps.
  std::size_t expected_begin = 0;
  for (const DrpGroup& g : r.groups) {
    EXPECT_EQ(g.begin, expected_begin);
    EXPECT_GT(g.end, g.begin);
    expected_begin = g.end;
  }
  EXPECT_EQ(expected_begin, db.size());
  // And the allocation maps each slice to one distinct channel.
  const std::vector<ItemId>& order = db.benefit_order();
  std::set<ChannelId> seen;
  for (std::size_t gi = 0; gi < r.groups.size(); ++gi) {
    const ChannelId c = r.allocation.channel_of(order[r.groups[gi].begin]);
    EXPECT_TRUE(seen.insert(c).second);
    for (std::size_t i = r.groups[gi].begin; i < r.groups[gi].end; ++i) {
      EXPECT_EQ(r.allocation.channel_of(order[i]), c);
    }
  }
}

TEST(Drp, GroupCostsMatchAllocation) {
  const Database db = generate_database({.items = 45, .seed = 5});
  const DrpResult r = run_drp(db, 6);
  double group_total = 0.0;
  for (const DrpGroup& g : r.groups) group_total += g.cost;
  EXPECT_NEAR(group_total, r.allocation.cost(), 1e-9);
}

TEST(Drp, BeatsFlatOnSkewedWorkloads) {
  const Database db = generate_database({.items = 120, .skewness = 1.2,
                                         .diversity = 2.0, .seed = 6});
  const DrpResult drp = run_drp(db, 6);
  const Allocation flat = flat_round_robin(db, 6);
  EXPECT_LT(drp.allocation.cost(), flat.cost());
}

TEST(Drp, DeterministicAcrossRuns) {
  const Database db = generate_database({.items = 64, .seed = 7});
  const DrpResult a = run_drp(db, 5);
  const DrpResult b = run_drp(db, 5);
  EXPECT_EQ(a.allocation.assignment(), b.allocation.assignment());
}

TEST(Drp, EachSplitReducesTotalCost) {
  // Splitting the max-cost group never increases the total (superadditivity),
  // so cost must be monotone in K along DRP's own trajectory.
  const Database db = generate_database({.items = 90, .diversity = 2.5, .seed = 8});
  double prev = run_drp(db, 1).allocation.cost();
  for (ChannelId k = 2; k <= 10; ++k) {
    const double cost = run_drp(db, k).allocation.cost();
    EXPECT_LE(cost, prev + 1e-12) << "K=" << k;
    prev = cost;
  }
}

TEST(Drp, AlternativeSelectionPoliciesStillPartition) {
  const Database db = generate_database({.items = 40, .seed = 9});
  for (SplitSelection sel :
       {SplitSelection::kMaxCost, SplitSelection::kMaxSize, SplitSelection::kMaxCount}) {
    const DrpResult r = run_drp(db, 5, {.selection = sel});
    std::string error;
    EXPECT_TRUE(r.allocation.validate(&error)) << error;
    EXPECT_EQ(r.groups.size(), 5u);
  }
}

TEST(Drp, AlternativeOrderingsStillPartition) {
  const Database db = generate_database({.items = 40, .diversity = 1.0, .seed = 10});
  for (ItemOrdering ord :
       {ItemOrdering::kBenefitRatioDesc, ItemOrdering::kFreqDesc, ItemOrdering::kSizeAsc}) {
    const DrpResult r = run_drp(db, 4, {.ordering = ord});
    std::string error;
    EXPECT_TRUE(r.allocation.validate(&error)) << error;
  }
}

TEST(Drp, PaperOrderingBeatsSizeOrderingOnDiverseData) {
  // The dimension-reduction claim: br ordering should dominate naive size
  // ordering on a skewed diverse workload (statistically; fixed seed here).
  const Database db = generate_database({.items = 120, .skewness = 1.0,
                                         .diversity = 2.5, .seed = 11});
  const double br = run_drp(db, 6).allocation.cost();
  const double sz = run_drp(db, 6, {.ordering = ItemOrdering::kSizeAsc}).allocation.cost();
  EXPECT_LT(br, sz);
}

TEST(Drp, RejectsInvalidChannelCounts) {
  const Database db = generate_database({.items = 5, .seed = 12});
  EXPECT_THROW(run_drp(db, 0), ContractViolation);
  EXPECT_THROW(run_drp(db, 6), ContractViolation);
}

TEST(Drp, HandlesUniformItems) {
  // All items identical: any balanced contiguous partition is optimal; DRP
  // must still produce K valid non-empty groups.
  const Database db(std::vector<double>(16, 2.0), std::vector<double>(16, 1.0));
  const DrpResult r = run_drp(db, 4);
  for (ChannelId c = 0; c < 4; ++c) EXPECT_EQ(r.allocation.count_of(c), 4u);
}

TEST(Drp, HandlesZeroFrequencyItems) {
  // Items with f=0 contribute no cost wherever they go; DRP must not crash.
  const Database db({1.0, 2.0, 3.0, 4.0, 5.0}, {1.0, 0.0, 0.0, 1.0, 0.0});
  const DrpResult r = run_drp(db, 3);
  std::string error;
  EXPECT_TRUE(r.allocation.validate(&error)) << error;
}

}  // namespace
}  // namespace dbs
