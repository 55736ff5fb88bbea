#include "api/portfolio.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include "api/scheduler.h"
#include "baselines/brute_force.h"
#include "baselines/ordered_dp.h"
#include "common/check.h"
#include "common/deadline.h"
#include "common/rng.h"
#include "core/drp_cds.h"
#include "core/kk_partition.h"
#include "model/cost.h"
#include "workload/generator.h"

namespace dbs {
namespace {

// A budget no racer exhausts on the instance sizes used here, so race
// results depend only on the seeds and the determinism contract applies in
// full (bit-identical across runs and thread counts).
constexpr double kGenerousDeadlineMs = 60'000.0;

// Scaled-down GA so the race-quality tests stay fast under sanitizers; the
// deadline tests use the default budget on purpose.
GoptOptions small_gopt() {
  GoptOptions gopt;
  gopt.population = 60;
  gopt.generations = 120;
  gopt.stall_generations = 40;
  return gopt;
}

std::vector<double> random_weights(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> weights(n);
  for (double& w : weights) w = rng.uniform(0.0, 10.0);
  return weights;
}

TEST(KkPartition, SpreadNeverExceedsLargestWeight) {
  // The differencing bound: a merge never increases either operand's spread,
  // so the final spread is at most the largest single weight.
  const struct { std::size_t n; ChannelId k; } shapes[] = {
      {1, 1}, {2, 2}, {7, 3}, {50, 4}, {50, 8}, {333, 16}, {40, 1}, {3, 8}};
  for (const auto& shape : shapes) {
    for (std::uint64_t seed : {11u, 12u, 13u, 14u}) {
      const std::vector<double> weights = random_weights(shape.n, seed);
      const KkPartition p = kk_partition(weights, shape.k);
      ASSERT_EQ(p.groups.size(), weights.size());
      ASSERT_EQ(p.sums.size(), shape.k);

      std::vector<double> recomputed(shape.k, 0.0);
      for (std::size_t j = 0; j < weights.size(); ++j) {
        ASSERT_LT(p.groups[j], shape.k);
        recomputed[p.groups[j]] += weights[j];
      }
      const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
      for (ChannelId g = 0; g < shape.k; ++g) {
        EXPECT_NEAR(p.sums[g], recomputed[g], 1e-6 * (1.0 + total));
      }

      const auto [lo, hi] = std::minmax_element(p.sums.begin(), p.sums.end());
      const double max_weight = *std::max_element(weights.begin(), weights.end());
      EXPECT_LE(*hi - *lo, max_weight + 1e-9)
          << "n=" << shape.n << " k=" << shape.k << " seed=" << seed;
    }
  }
}

TEST(KkPartition, IsDeterministic) {
  const std::vector<double> weights = random_weights(120, 99);
  const KkPartition a = kk_partition(weights, 7);
  const KkPartition b = kk_partition(weights, 7);
  EXPECT_EQ(a.groups, b.groups);
  EXPECT_EQ(a.sums, b.sums);
}

TEST(KkPartition, HandlesDegenerateShapes) {
  // k=1: everything in one group, sum = total.
  const std::vector<double> weights{3.0, 1.0, 2.0};
  const KkPartition one = kk_partition(weights, 1);
  EXPECT_EQ(one.groups, (std::vector<ChannelId>{0, 0, 0}));
  EXPECT_NEAR(one.sums[0], 6.0, 1e-12);

  // All-zero weights: any labelling is perfect; sums must all be zero.
  const KkPartition zero = kk_partition(std::vector<double>(5, 0.0), 3);
  for (double s : zero.sums) EXPECT_EQ(s, 0.0);

  // Single weight into one group.
  const KkPartition single = kk_partition(std::vector<double>{4.5}, 1);
  EXPECT_EQ(single.groups.size(), 1u);
  EXPECT_NEAR(single.sums[0], 4.5, 1e-12);
}

TEST(KkPartition, RejectsBadInput) {
  const std::vector<double> weights{1.0, 2.0};
  EXPECT_THROW(kk_partition(weights, 0), ContractViolation);
  EXPECT_THROW(kk_partition(std::vector<double>{}, 2), ContractViolation);
  EXPECT_THROW(kk_partition(std::vector<double>{1.0, -0.5}, 1), ContractViolation);
  EXPECT_THROW(
      kk_partition(std::vector<double>{1.0,
                                       std::numeric_limits<double>::infinity()},
                   1),
      ContractViolation);
}

TEST(KkSeed, ProducesAValidAllocation) {
  const Database db = generate_database({.items = 80, .skewness = 0.8,
                                         .diversity = 2.0, .seed = 7});
  const Allocation alloc = kk_seed_allocation(db, 6);
  std::string error;
  EXPECT_TRUE(alloc.validate(&error)) << error;
  EXPECT_EQ(alloc.channels(), 6u);
  EXPECT_THROW(kk_seed_allocation(db, 0), ContractViolation);
  EXPECT_THROW(kk_seed_allocation(db, 81), ContractViolation);
}

TEST(LowerBound, NeverExceedsTheExactOptimum) {
  for (std::uint64_t seed : {21u, 22u, 23u}) {
    const Database db = generate_database({.items = 10, .skewness = 1.0,
                                           .diversity = 2.0, .seed = seed});
    for (ChannelId k : {1u, 2u, 3u, 4u}) {
      const auto exact = brute_force_optimal(db, k);
      ASSERT_TRUE(exact.has_value());
      EXPECT_LE(broadcast_cost_lower_bound(db, k), exact->cost + 1e-9)
          << "seed=" << seed << " k=" << k;
    }
  }
}

TEST(QualityAnchor, KkCdsAndPortfolioStayNearOrderedDp) {
  // The KSY anchor (ISSUE 9): the KK seed refined by CDS, and a fortiori the
  // portfolio winner, must land within a fixed factor of the ordered-DP
  // optimum — the best any contiguous-split strategy can do — and no result
  // may undercut the Cauchy–Schwarz lower bound.
  constexpr double kFactor = 1.25;
  for (std::uint64_t seed : {31u, 32u, 33u}) {
    const Database db = generate_database({.items = 40, .skewness = 0.8,
                                           .diversity = 2.0, .seed = seed});
    for (ChannelId k : {3u, 5u}) {
      const double anchor = ordered_dp_optimal(db, k).cost();
      const double floor = broadcast_cost_lower_bound(db, k);
      ASSERT_LE(floor, anchor + 1e-9);

      Allocation kk = kk_seed_allocation(db, k);
      run_cds(kk);
      EXPECT_GE(kk.cost(), floor - 1e-9);
      EXPECT_LE(kk.cost(), kFactor * anchor)
          << "kk+cds seed=" << seed << " k=" << k;

      PortfolioOptions options;
      options.gopt = small_gopt();
      const PortfolioResult raced = plan(db, k, kGenerousDeadlineMs, options);
      EXPECT_GE(raced.cost, floor - 1e-9);
      EXPECT_LE(raced.cost, kFactor * anchor)
          << "portfolio seed=" << seed << " k=" << k;
    }
  }
}

TEST(Portfolio, WinnerIsTheRacerCostArgmin) {
  const Database db = generate_database({.items = 60, .skewness = 1.0,
                                         .diversity = 2.0, .seed = 41});
  PortfolioOptions options;
  options.gopt = small_gopt();
  const PortfolioResult result = plan(db, 5, kGenerousDeadlineMs, options);

  std::string error;
  EXPECT_TRUE(result.allocation.validate(&error)) << error;
  EXPECT_NEAR(result.cost, result.allocation.cost(), 1e-12);
  ASSERT_EQ(result.racers.size(), 3u);

  // Strict argmin with ties to the lowest racer index.
  std::size_t expected = 0;
  for (std::size_t i = 1; i < result.racers.size(); ++i) {
    if (result.racers[i].cost < result.racers[expected].cost) expected = i;
  }
  EXPECT_EQ(static_cast<std::size_t>(result.winner), expected);
  EXPECT_NEAR(result.cost, result.racers[expected].cost, 1e-12);
  for (const RacerOutcome& r : result.racers) {
    EXPECT_TRUE(r.completed);  // generous deadline: every racer finishes
    EXPECT_GE(r.cost, result.cost - 1e-12);
  }
}

TEST(Portfolio, NeverLosesToDrpCdsAlone) {
  // Table 5 midpoints (N=120, K=6, theta=0.8, phi=2): DRP-CDS is one of the
  // racers, so the winner can never be costlier than running it alone.
  const Database db = generate_database({.items = 120, .skewness = 0.8,
                                         .diversity = 2.0, .seed = 1000});
  const double alone = run_drp_cds(db, 6).final_cost;
  PortfolioOptions options;
  options.gopt = small_gopt();
  const PortfolioResult raced = plan(db, 6, kGenerousDeadlineMs, options);
  EXPECT_LE(raced.cost, alone + 1e-9);
}

TEST(Portfolio, DeterministicAcrossThreadCountsAndRuns) {
  // The race runs one worker per racer. Each racer run alone on the calling
  // thread is the serial reference: every race must match it bit for bit.
  const Database db = generate_database({.items = 60, .skewness = 0.8,
                                         .diversity = 1.5, .seed = 51});
  PortfolioOptions options;
  options.gopt = small_gopt();
  Allocation kk = kk_seed_allocation(db, 4);
  run_cds(kk);
  // An armed deadline skips GOPT's ordered-DP seed, as it does in the race.
  GoptOptions gopt = small_gopt();
  gopt.deadline = Deadline::after_ms(kGenerousDeadlineMs);
  const std::vector<Allocation> serial = {run_drp_cds(db, 4).allocation,
                                          std::move(kk),
                                          run_gopt(db, 4, gopt).allocation};
  for (int run = 0; run < 2; ++run) {
    const PortfolioResult raced = plan(db, 4, kGenerousDeadlineMs, options);
    ASSERT_EQ(raced.racers.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(raced.racers[i].cost, serial[i].cost()) << "racer " << i;
    }
    const Allocation& winner = serial[static_cast<std::size_t>(raced.winner)];
    EXPECT_EQ(raced.cost, winner.cost());  // bit-identical, not just close
    EXPECT_EQ(raced.allocation.assignment(), winner.assignment());
  }
}

TEST(Portfolio, RespectsTheDeadline) {
  // An instance where the default-budget GA alone needs seconds: the race
  // must come back within the deadline plus one cancellation granule, and
  // the GA racer must report it was cut short. The elapsed bound is loose
  // (20x) because sanitizer builds stretch the granule itself.
  const Database db = generate_database({.items = 20'000, .skewness = 0.8,
                                         .diversity = 2.0, .seed = 61});
  constexpr double kDeadlineMs = 200.0;
  const PortfolioResult raced = plan(db, 16, kDeadlineMs);

  std::string error;
  EXPECT_TRUE(raced.allocation.validate(&error)) << error;
  EXPECT_LT(raced.elapsed_ms, 20.0 * kDeadlineMs);
  ASSERT_EQ(raced.racers.size(), 3u);
  EXPECT_FALSE(
      raced.racers[static_cast<std::size_t>(PortfolioRacer::kGopt)].completed);
}

TEST(Portfolio, RejectsBadInput) {
  const Database db = generate_database({.items = 8, .seed = 71});
  EXPECT_THROW(plan(db, 0, 100.0), ContractViolation);
  EXPECT_THROW(plan(db, 9, 100.0), ContractViolation);
  EXPECT_THROW(plan(db, 2, 0.0), ContractViolation);
  EXPECT_THROW(plan(db, 2, -5.0), ContractViolation);
}

TEST(Portfolio, RacerNamesAreStable) {
  EXPECT_EQ(portfolio_racer_name(PortfolioRacer::kDrpCds), "drp-cds");
  EXPECT_EQ(portfolio_racer_name(PortfolioRacer::kKkCds), "kk-cds");
  EXPECT_EQ(portfolio_racer_name(PortfolioRacer::kGopt), "gopt");
}

TEST(Portfolio, RunsThroughTheSchedulerFacade) {
  const Database db = generate_database({.items = 30, .skewness = 0.8,
                                         .diversity = 2.0, .seed = 81});
  ScheduleRequest request;
  request.algorithm = Algorithm::kPortfolio;
  request.channels = 4;
  request.gopt = small_gopt();
  request.portfolio_deadline_ms = kGenerousDeadlineMs;
  const ScheduleResult result = schedule(db, request);
  std::string error;
  EXPECT_TRUE(result.allocation.validate(&error)) << error;
  EXPECT_NEAR(result.cost, result.allocation.cost(), 1e-12);
  // The scheduler-level result matches a direct plan() call bit-for-bit.
  PortfolioOptions options;
  options.gopt = small_gopt();
  const PortfolioResult direct = plan(db, 4, kGenerousDeadlineMs, options);
  EXPECT_EQ(result.cost, direct.cost);
}

}  // namespace
}  // namespace dbs
