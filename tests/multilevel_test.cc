#include "core/multilevel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "baselines/brute_force.h"
#include "common/check.h"
#include "core/drp.h"
#include "core/drp_cds.h"
#include "core/kk_partition.h"
#include "workload/generator.h"

namespace dbs {
namespace {

Database family_database(std::size_t items, std::uint64_t seed) {
  return generate_database(
      {.items = items, .skewness = 0.8, .diversity = 2.0, .seed = seed});
}

TEST(Multilevel, EndsAtASingleMoveLocalOptimum) {
  struct Case {
    std::size_t items;
    ChannelId channels;
    std::uint64_t seed;
  };
  for (const Case& c : {Case{13, 2, 1}, Case{60, 3, 2}, Case{120, 6, 3},
                        Case{500, 8, 4}, Case{2000, 10, 5}}) {
    const Database db = family_database(c.items, c.seed);
    const MultilevelResult r = run_multilevel(db, c.channels);
    EXPECT_EQ(&r.allocation.database(), &db);
    EXPECT_TRUE(r.cds.converged);
    EXPECT_LE(best_move(r.allocation).gain, kCdsMinGain)
        << "N=" << c.items << " K=" << c.channels;
    EXPECT_EQ(r.final_cost, r.allocation.cost());
    std::string error;
    EXPECT_TRUE(r.allocation.validate(&error)) << error;
  }
}

TEST(Multilevel, IsExactlyDrpCdsWhenNothingCoarsens) {
  for (ChannelId k : {1u, 2u, 5u, 8u}) {
    for (std::size_t n = k; n <= 2 * static_cast<std::size_t>(k); ++n) {
      const Database db = family_database(n, 100 + n);
      const MultilevelResult ml = run_multilevel(db, k);
      const DrpCdsResult flat = run_drp_cds(db, k);
      EXPECT_EQ(ml.levels, 1u);
      EXPECT_EQ(ml.allocation.assignment(), flat.allocation.assignment())
          << "N=" << n << " K=" << k;
      EXPECT_EQ(ml.final_cost, flat.final_cost);
      EXPECT_EQ(ml.cds.iterations, flat.cds.iterations);
    }
  }
}

TEST(Multilevel, CountsLevelsByHalving) {
  // 2000 → 1000 → 500 → 250 → 125 → 63 → 32 → 16 ≤ 2K: eight levels.
  EXPECT_EQ(run_multilevel(family_database(2000, 6), 10).levels, 8u);
  // 21 → 11 ≤ 2K: the odd tail stays single, two levels.
  EXPECT_EQ(run_multilevel(family_database(21, 7), 6).levels, 2u);
}

TEST(Multilevel, NeverBeatsTheBruteForceOptimum) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    for (ChannelId k : {2u, 3u}) {
      const Database db = family_database(9 + seed % 3, 200 + seed);
      const auto exact = brute_force_optimal(db, k);
      ASSERT_TRUE(exact.has_value());
      const MultilevelResult ml = run_multilevel(db, k);
      EXPECT_GT(ml.levels, 1u);
      EXPECT_LE(exact->allocation.cost(), ml.final_cost + 1e-12)
          << "seed " << seed << " K=" << k;
    }
  }
}

TEST(Multilevel, IsDeterministic) {
  const Database db = family_database(3000, 8);
  const MultilevelResult a = run_multilevel(db, 12);
  const MultilevelResult b = run_multilevel(db, 12);
  EXPECT_EQ(a.allocation.assignment(), b.allocation.assignment());
  EXPECT_EQ(a.final_cost, b.final_cost);
  EXPECT_EQ(a.cds.iterations, b.cds.iterations);
}

// Quality anchor: the mean cost ÷ KSY-bound ratio over a seed family is no
// worse than the paper's DRP-CDS on the same databases.
void expect_mean_gap_no_worse(std::size_t items, ChannelId channels,
                              std::uint64_t base_seed, int seeds) {
  double ml_gap = 0.0;
  double drp_cds_gap = 0.0;
  for (int s = 0; s < seeds; ++s) {
    const Database db = family_database(items, base_seed + s);
    const double bound = broadcast_cost_lower_bound(db, channels);
    ml_gap += run_multilevel(db, channels).final_cost / bound;
    drp_cds_gap += run_drp_cds(db, channels).final_cost / bound;
  }
  EXPECT_LE(ml_gap / seeds, drp_cds_gap / seeds)
      << "N=" << items << " K=" << channels << " over " << seeds << " seeds";
}

TEST(Multilevel, MeanGapNoWorseThanDrpCdsAtTheMidpoints) {
  expect_mean_gap_no_worse(120, 6, 1000, 200);
}

TEST(Multilevel, MeanGapNoWorseThanDrpCdsAtScale2000) {
  expect_mean_gap_no_worse(2000, 10, 7000, 50);
}

// Reference V-cycle with an explicit hierarchy: each coarse level keeps
// parent[x], the coarse item holding the finer level's item x, and the
// projection reads it by id. Its pair sums gather by benefit_order(), so it
// reads no rank-major column. run_multilevel must reproduce it bit for bit.
struct ParentLevel {
  Database db;
  std::vector<ItemId> parent;
};

ParentLevel coarsen_with_parent(const Database& fine) {
  const std::vector<ItemId>& order = fine.benefit_order();
  const std::size_t pairs = (order.size() + 1) / 2;
  std::vector<double> freqs(pairs, 0.0);
  std::vector<double> sizes(pairs, 0.0);
  std::vector<ItemId> parent(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    freqs[i / 2] += fine.freqs()[order[i]];
    sizes[i / 2] += fine.sizes()[order[i]];
    parent[order[i]] = static_cast<ItemId>(i / 2);
  }
  return {Database(sizes, freqs), std::move(parent)};
}

struct ParentReference {
  MultilevelResult result;
  std::size_t unsorted_levels = 0;  ///< coarse levels that arrived out of order
};

ParentReference run_parent_reference(const Database& db, ChannelId channels) {
  std::vector<ParentLevel> coarse;
  const Database* top = &db;
  while (top->size() > 2 * static_cast<std::size_t>(channels)) {
    coarse.push_back(coarsen_with_parent(*top));
    top = &coarse.back().db;
  }
  ParentReference ref{{run_drp(*top, channels).allocation, 0.0, coarse.size() + 1, {}}};
  ref.result.cds = run_cds(ref.result.allocation);
  for (std::size_t l = coarse.size(); l-- > 0;) {
    const Database& fine = l == 0 ? db : coarse[l - 1].db;
    const std::vector<ChannelId>& above = ref.result.allocation.assignment();
    std::vector<ChannelId> projected(fine.size());
    for (ItemId x = 0; x < projected.size(); ++x) projected[x] = above[coarse[l].parent[x]];
    ref.result.allocation = Allocation(fine, channels, std::move(projected));
    ref.result.cds = run_cds(ref.result.allocation);
  }
  ref.result.final_cost = ref.result.allocation.cost();
  for (const ParentLevel& level : coarse) {
    ref.unsorted_levels += !std::ranges::is_sorted(level.db.benefit_order());
  }
  return ref;
}

/// Runs both V-cycles on `db` and returns how many coarse levels arrived
/// out of benefit order.
std::size_t expect_matches_parent_reference(const Database& db, ChannelId channels,
                                            const std::string& context) {
  const MultilevelResult got = run_multilevel(db, channels);
  const ParentReference want = run_parent_reference(db, channels);
  EXPECT_EQ(got.allocation.assignment(), want.result.allocation.assignment()) << context;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.final_cost),
            std::bit_cast<std::uint64_t>(want.result.final_cost))
      << context;
  EXPECT_EQ(got.levels, want.result.levels) << context;
  EXPECT_EQ(got.cds.iterations, want.result.cds.iterations) << context;
  EXPECT_EQ(got.cds.moves_evaluated, want.result.cds.moves_evaluated) << context;
  EXPECT_EQ(got.cds.index_repairs, want.result.cds.index_repairs) << context;
  return want.unsorted_levels;
}

TEST(Multilevel, MatchesTheParentColumnReference) {
  struct Case {
    std::size_t items;
    ChannelId channels;
  };
  std::uint64_t seed = 40;
  for (const Case& c : {Case{13, 2}, Case{21, 6}, Case{60, 3}, Case{500, 8},
                        Case{2000, 10}, Case{3001, 7}}) {
    expect_matches_parent_reference(family_database(c.items, ++seed), c.channels,
                                    "N=" + std::to_string(c.items) +
                                        " K=" + std::to_string(c.channels));
  }

  // Equal benefit ratios (f = z): the ratios differ only by rounding, so
  // the coarse levels arrive out of order and the projection must follow
  // each level's sorted benefit order.
  const Database sizes_only = family_database(2000, 47);
  const std::vector<double> sizes(sizes_only.sizes().begin(), sizes_only.sizes().end());
  EXPECT_GE(expect_matches_parent_reference(Database(sizes, sizes), 10, "f = z"), 1u);
}

TEST(Multilevel, RejectsBadChannelCounts) {
  const Database db = family_database(10, 9);
  EXPECT_THROW(run_multilevel(db, 0), ContractViolation);
  EXPECT_THROW(run_multilevel(db, 11), ContractViolation);
}

}  // namespace
}  // namespace dbs
