#include "core/multilevel.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "baselines/brute_force.h"
#include "common/check.h"
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
    EXPECT_LE(best_move(r.allocation).gain, CdsOptions{}.min_gain)
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

TEST(Multilevel, RejectsBadChannelCounts) {
  const Database db = family_database(10, 9);
  EXPECT_THROW(run_multilevel(db, 0), ContractViolation);
  EXPECT_THROW(run_multilevel(db, 11), ContractViolation);
}

}  // namespace
}  // namespace dbs
