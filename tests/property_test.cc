// Parameterized property sweeps over the paper's whole parameter grid
// (Table 5): every invariant must hold for every (N, K, θ, Φ, seed) cell.
#include <gtest/gtest.h>

#include <tuple>

#include "baselines/flat.h"
#include "baselines/greedy.h"
#include "baselines/ordered_dp.h"
#include "baselines/vfk.h"
#include "core/cds.h"
#include "core/drp.h"
#include "core/drp_cds.h"
#include "model/cost.h"
#include "workload/generator.h"

namespace dbs {
namespace {

struct GridParam {
  std::size_t items;
  ChannelId channels;
  double skewness;
  double diversity;
  std::uint64_t seed;
};

std::ostream& operator<<(std::ostream& os, const GridParam& p) {
  return os << "N" << p.items << "_K" << p.channels << "_theta" << p.skewness
            << "_phi" << p.diversity << "_seed" << p.seed;
}

class GridProperty : public ::testing::TestWithParam<GridParam> {
 protected:
  Database db_ = generate_database({.items = GetParam().items,
                                    .skewness = GetParam().skewness,
                                    .diversity = GetParam().diversity,
                                    .seed = GetParam().seed});
  ChannelId k_ = GetParam().channels;
};

TEST_P(GridProperty, DrpIsAValidPartitionWithNoEmptyChannel) {
  const DrpResult r = run_drp(db_, k_);
  std::string error;
  ASSERT_TRUE(r.allocation.validate(&error)) << error;
  for (ChannelId c = 0; c < k_; ++c) EXPECT_GT(r.allocation.count_of(c), 0u);
}

TEST_P(GridProperty, CdsNeverIncreasesCostAndReachesLocalOptimum) {
  Allocation alloc = run_drp(db_, k_).allocation;
  const double before = alloc.cost();
  const CdsStats stats = run_cds(alloc);
  EXPECT_LE(alloc.cost(), before + 1e-12);
  EXPECT_TRUE(stats.converged);
  EXPECT_LE(best_move(alloc).gain, 1e-12);
  std::string error;
  EXPECT_TRUE(alloc.validate(&error)) << error;
}

TEST_P(GridProperty, Eq4PredictsExactCostDeltaForSampledMoves) {
  Allocation alloc = run_drp(db_, k_).allocation;
  Rng rng(GetParam().seed * 31 + 7);
  for (int trial = 0; trial < 50; ++trial) {
    const ItemId id = static_cast<ItemId>(rng.below(db_.size()));
    const ChannelId to = static_cast<ChannelId>(rng.below(k_));
    const double predicted = alloc.move_gain(id, to);
    const double before = alloc.cost_recomputed();
    alloc.move(id, to);
    const double after = alloc.cost_recomputed();
    EXPECT_NEAR(before - after, predicted, 1e-9);
  }
}

TEST_P(GridProperty, QualityChainHolds) {
  // drp-cds ≤ drp ≤ cost of one channel; ordered-dp ≤ drp; flat is beaten by
  // drp-cds on skewed data (θ ≥ 0.4 always holds in the grid).
  const double drp = run_drp(db_, k_).allocation.cost();
  const DrpCdsResult full = run_drp_cds(db_, k_);
  const double dp = ordered_dp_optimal(db_, k_).cost();
  EXPECT_LE(full.final_cost, drp + 1e-9);
  EXPECT_LE(dp, drp + 1e-9);
  EXPECT_LE(full.final_cost, flat_round_robin(db_, k_).cost() + 1e-9);
  EXPECT_LE(drp, db_.total_size() + 1e-9);  // K=1 upper bound (F=1, Z=total)
}

TEST_P(GridProperty, WaitingTimeDecomposition) {
  const Allocation alloc = run_drp_cds(db_, k_).allocation;
  const double b = 10.0;
  EXPECT_NEAR(program_waiting_time(alloc, b),
              alloc.cost() / (2.0 * b) + db_.weighted_size() / b, 1e-9);
  double weighted_channels = 0.0;
  for (ChannelId c = 0; c < k_; ++c) {
    weighted_channels += alloc.freq_of(c) * channel_waiting_time(alloc, c, b);
  }
  EXPECT_NEAR(program_waiting_time(alloc, b), weighted_channels, 1e-9);
}

TEST_P(GridProperty, AggregatesSumToDatabaseTotals) {
  for (const Allocation& alloc :
       {run_drp(db_, k_).allocation, run_vfk(db_, k_), greedy_insertion(db_, k_)}) {
    double f = 0.0, z = 0.0, p = 0.0;
    std::size_t n = 0;
    for (ChannelId c = 0; c < k_; ++c) {
      f += alloc.freq_of(c);
      z += alloc.size_of(c);
      p += alloc.weighted_size_of(c);
      n += alloc.count_of(c);
    }
    EXPECT_NEAR(f, 1.0, 1e-9);
    EXPECT_NEAR(z, db_.total_size(), 1e-6);
    EXPECT_NEAR(p, db_.weighted_size(), 1e-9 * (1.0 + db_.weighted_size()));
    EXPECT_EQ(n, db_.size());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Table5Grid, GridProperty,
    ::testing::Values(
        // N sweep at the defaults (K=6, θ=0.8, Φ=2).
        GridParam{60, 6, 0.8, 2.0, 11}, GridParam{100, 6, 0.8, 2.0, 12},
        GridParam{140, 6, 0.8, 2.0, 13}, GridParam{180, 6, 0.8, 2.0, 14},
        // K sweep.
        GridParam{120, 4, 0.8, 2.0, 21}, GridParam{120, 7, 0.8, 2.0, 22},
        GridParam{120, 10, 0.8, 2.0, 23},
        // θ sweep.
        GridParam{120, 6, 0.4, 2.0, 31}, GridParam{120, 6, 1.2, 2.0, 32},
        GridParam{120, 6, 1.6, 2.0, 33},
        // Φ sweep including the conventional environment Φ=0.
        GridParam{120, 6, 0.8, 0.0, 41}, GridParam{120, 6, 0.8, 1.0, 42},
        GridParam{120, 6, 0.8, 3.0, 43},
        // Corner cases.
        GridParam{60, 10, 1.6, 3.0, 51}, GridParam{180, 4, 0.4, 0.0, 52},
        GridParam{10, 10, 0.8, 2.0, 53}, GridParam{12, 1, 0.8, 2.0, 54}),
    [](const ::testing::TestParamInfo<GridParam>& info) {
      std::ostringstream os;
      os << info.param;
      std::string name = os.str();
      for (char& c : name) {
        if (c == '.') c = 'p';
      }
      return name;
    });

}  // namespace
}  // namespace dbs
