#include "core/cds.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "brute_cds.h"
#include "core/drp.h"
#include "core/multilevel.h"
#include "tie_heavy.h"
#include "workload/generator.h"

namespace dbs {
namespace {

TEST(BestMove, FindsKnownImprovement) {
  // Channel 0 = {popular small d0, huge cold d2}, channel 1 = {popular small
  // d1}. By Eq. (4) the best move is d0 → channel 1 with
  // Δc = 0.45·(101−1) + 1·(0.55−0.45) − 2·0.45·1 = 44.2 (moving the huge item
  // instead gains exactly 0).
  const Database db({1.0, 1.0, 100.0}, {0.45, 0.45, 0.10});
  Allocation alloc(db, 2, {0, 1, 0});
  const CdsMove move = best_move(alloc);
  EXPECT_EQ(move.item, 0u);
  EXPECT_EQ(move.from, 0u);
  EXPECT_EQ(move.to, 1u);
  EXPECT_NEAR(move.gain, 44.2, 1e-9);
  EXPECT_NEAR(alloc.move_gain(2, 1), 0.0, 1e-12);
}

TEST(BestMove, GainAgreesWithAllocationMoveGain) {
  const Database db = generate_database({.items = 30, .seed = 1});
  Allocation alloc = run_drp(db, 4).allocation;
  const CdsMove move = best_move(alloc);
  EXPECT_DOUBLE_EQ(move.gain, alloc.move_gain(move.item, move.to));
}

TEST(BestMove, AtLocalOptimumGainIsNonPositive) {
  const Database db = generate_database({.items = 25, .seed = 2});
  Allocation alloc = run_drp(db, 3).allocation;
  run_cds(alloc);
  EXPECT_LE(best_move(alloc).gain, 1e-12);
}

TEST(Cds, CostNeverIncreasesAndConverges) {
  const Database db = generate_database({.items = 100, .skewness = 1.0,
                                         .diversity = 2.0, .seed = 3});
  Allocation alloc = run_drp(db, 6).allocation;
  const double before = alloc.cost();
  const CdsStats stats = run_cds(alloc);
  EXPECT_LE(alloc.cost(), before + 1e-12);
  EXPECT_TRUE(stats.converged);
  EXPECT_DOUBLE_EQ(stats.initial_cost, before);
  EXPECT_NEAR(stats.final_cost, alloc.cost(), 1e-12);
  EXPECT_NEAR(stats.initial_cost - stats.final_cost, before - alloc.cost(), 1e-12);
}

TEST(Cds, EachIterationStrictlyDecreasesCost) {
  const Database db = generate_database({.items = 60, .diversity = 2.0, .seed = 4});
  Allocation alloc = run_drp(db, 5).allocation;
  double prev = alloc.cost();
  // Step manually: one iteration at a time.
  for (int step = 0; step < 1000; ++step) {
    CdsOptions one;
    one.max_iterations = 1;
    const CdsStats stats = run_cds(alloc, one);
    if (stats.iterations == 0) break;
    EXPECT_LT(alloc.cost(), prev);
    prev = alloc.cost();
  }
  EXPECT_LE(best_move(alloc).gain, 1e-12);
}

TEST(Cds, IdempotentAtLocalOptimum) {
  const Database db = generate_database({.items = 40, .seed = 5});
  Allocation alloc = run_drp(db, 4).allocation;
  run_cds(alloc);
  const auto frozen = alloc.assignment();
  const CdsStats again = run_cds(alloc);
  EXPECT_EQ(again.iterations, 0u);
  EXPECT_EQ(alloc.assignment(), frozen);
}

TEST(Cds, RespectsIterationBudget) {
  const Database db = generate_database({.items = 150, .skewness = 0.4,
                                         .diversity = 3.0, .seed = 6});
  Allocation alloc(db, 8);  // everything on channel 0: far from optimal
  // Distribute something first so moves exist both ways.
  CdsOptions capped;
  capped.max_iterations = 3;
  const CdsStats stats = run_cds(alloc, capped);
  EXPECT_LE(stats.iterations, 3u);
}

TEST(Cds, ImprovesAPoorStartSubstantially) {
  // All items on one channel with K available: CDS alone must spread them.
  const Database db = generate_database({.items = 50, .skewness = 1.0,
                                         .diversity = 1.5, .seed = 8});
  Allocation alloc(db, 5);
  const double before = alloc.cost();
  run_cds(alloc);
  EXPECT_LT(alloc.cost(), 0.8 * before);
  // No channel may end up with everything if spreading helps.
  std::size_t nonempty = 0;
  for (ChannelId c = 0; c < 5; ++c) nonempty += alloc.count_of(c) > 0;
  EXPECT_GT(nonempty, 1u);
}

TEST(Cds, SingleChannelNothingToDo) {
  const Database db = generate_database({.items = 10, .seed = 9});
  Allocation alloc(db, 1);
  const CdsStats stats = run_cds(alloc);
  EXPECT_EQ(stats.iterations, 0u);
}

TEST(Cds, SingleItemNothingToDo) {
  const Database db({5.0}, {1.0});
  Allocation alloc(db, 1);
  EXPECT_EQ(run_cds(alloc).iterations, 0u);
}

TEST(CdsIndexed, ProducesIdenticalResultToScanEngine) {
  // The candidate index must replay the brute-force oracle's exact move
  // sequence, ending in the identical assignment — across a spread of shapes.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Database db = generate_database({.items = 60 + seed * 15,
                                           .skewness = 0.6 + 0.1 * seed,
                                           .diversity = 2.0, .seed = seed});
    const ChannelId k = static_cast<ChannelId>(3 + seed);
    Allocation brute = run_drp(db, k).allocation;
    Allocation indexed = brute;
    const std::size_t brute_moves = brute_force_cds(brute);
    EXPECT_EQ(run_cds(indexed).iterations, brute_moves) << "seed " << seed;
    EXPECT_EQ(brute.assignment(), indexed.assignment()) << "seed " << seed;
  }
}

TEST(CdsStatsWork, AtMostOneEvaluationPerItemPerPass) {
  // Building the index evaluates at most one gain per item, and so does each
  // fold (one per applied move); a fold re-queries at most every item.
  const Database db = generate_database({.items = 30, .seed = 41});
  Allocation alloc = run_drp(db, 4).allocation;
  const CdsStats stats = run_cds(alloc);
  ASSERT_GT(stats.iterations, 0u);
  EXPECT_LE(stats.moves_evaluated, (stats.iterations + 1) * 30);
  EXPECT_LE(stats.index_repairs, stats.iterations * 30);
}

TEST(CdsStatsWork, IndexedDoesStrictlyLessWorkThanScan) {
  // A long run from a poor start: an exhaustive search would evaluate all
  // N·(K−1) moves per iteration plus a final sweep.
  const Database db = generate_database({.items = 80, .diversity = 2.0, .seed = 42});
  Allocation alloc(db, 5);
  const CdsStats stats = run_cds(alloc);
  ASSERT_GT(stats.iterations, 0u);
  EXPECT_GT(stats.moves_evaluated, 0u);
  EXPECT_LT(stats.moves_evaluated, (stats.iterations + 1) * 80 * (5 - 1));
  EXPECT_GT(stats.index_repairs, 0u);
}

TEST(CdsStatsWork, NoMovesMeansOneScanOnly) {
  // At a local optimum the run is one index build and no fold.
  const Database db = generate_database({.items = 20, .seed = 44});
  Allocation alloc = run_drp(db, 3).allocation;
  run_cds(alloc);  // reach the local optimum
  const CdsStats stats = run_cds(alloc);
  EXPECT_EQ(stats.iterations, 0u);
  EXPECT_LE(stats.moves_evaluated, 20u);
  EXPECT_EQ(stats.index_repairs, 0u);
}

TEST(CdsStatsWork, CountersArePinned) {
  // Seeded work and cost, which an exact change to the index must keep. A
  // refresh that skips a gain or counts one twice moves moves_evaluated, a
  // stale boundary moves the trajectory; either breaks a value below.
  struct Pinned {
    std::size_t items;
    ChannelId channels;
    bool multilevel;  // else DRP then run_cds; multilevel pins level 0
    std::size_t iterations;
    std::size_t moves_evaluated;
    std::size_t index_repairs;
    double final_cost;
  };
  for (const Pinned& pin :
       {Pinned{5000, 16, false, 3286, 2146945, 2895485, 0x1.90e9f068b4e4p+11},
        Pinned{2000, 10, false, 442, 122276, 198555, 0x1.072af18bbc954p+11},
        Pinned{2000, 10, true, 57, 2834, 25686, 0x1.06a4ca729022ap+11}}) {
    const Database db = generate_database({.items = pin.items, .skewness = 0.8,
                                           .diversity = 2.0, .seed = 3});
    CdsStats stats;
    if (pin.multilevel) {
      stats = run_multilevel(db, pin.channels).cds;
    } else {
      Allocation alloc = run_drp(db, pin.channels).allocation;
      stats = run_cds(alloc);
    }
    const std::string shape = std::to_string(pin.items) + " items, " +
                              std::to_string(pin.channels) + " channels" +
                              (pin.multilevel ? ", multilevel" : "");
    EXPECT_EQ(stats.iterations, pin.iterations) << shape;
    EXPECT_EQ(stats.moves_evaluated, pin.moves_evaluated) << shape;
    EXPECT_EQ(stats.index_repairs, pin.index_repairs) << shape;
    EXPECT_EQ(stats.final_cost, pin.final_cost) << shape;
  }
}

TEST(CdsIndexed, IdenticalFromArbitraryStartsToo) {
  const Database db = generate_database({.items = 90, .diversity = 2.5, .seed = 31});
  Rng rng(5);
  std::vector<ChannelId> start(db.size());
  for (auto& c : start) c = static_cast<ChannelId>(rng.below(7));
  Allocation brute(db, 7, start);
  Allocation indexed = brute;
  const std::size_t brute_moves = brute_force_cds(brute);
  EXPECT_EQ(run_cds(indexed).iterations, brute_moves);
  EXPECT_EQ(brute.assignment(), indexed.assignment());
}

TEST(CdsIndexed, ReachesALocalOptimumOnTieHeavyIntegerCatalogues) {
  // Integer sizes and frequencies make exact load ties between channels, and
  // between items of equal benefit ratio, common; zero frequencies (about a
  // third) sort to the end of the benefit order. An exact tie may be broken
  // one way by the index's loads and another by brute_force_cds's Eq.-4
  // gains, so the trajectories can differ; what must hold is the loop's
  // contract: no cost increase, and a local optimum at the end.
  Rng rng(2005);
  for (int instance = 0; instance < 200; ++instance) {
    const TieHeavyInstance drawn = draw_tie_heavy_instance(rng);
    for (const bool all_on_zero : {false, true}) {
      Allocation alloc = all_on_zero ? Allocation(drawn.db, drawn.channels)
                                     : Allocation(drawn.db, drawn.channels, drawn.scattered);
      const double before = alloc.cost();
      const CdsStats stats = run_cds(alloc);
      const std::string context = "instance " + std::to_string(instance) +
                                  (all_on_zero ? " from channel 0" : " from scattered");
      EXPECT_TRUE(stats.converged) << context;
      EXPECT_LE(best_move(alloc).gain, kCdsMinGain) << context;
      EXPECT_LE(alloc.cost(), before) << context;
    }
  }
}

TEST(CdsIndexed, SingleChannelNoop) {
  const Database db = generate_database({.items = 10, .seed = 32});
  Allocation alloc(db, 1);
  const CdsStats stats = run_cds(alloc);
  EXPECT_EQ(stats.iterations, 0u);
  EXPECT_TRUE(stats.converged);
}

TEST(CdsIndexed, RespectsIterationBudget) {
  const Database db = generate_database({.items = 120, .diversity = 2.0, .seed = 33});
  Allocation alloc(db, 6);
  CdsOptions capped;
  capped.max_iterations = 2;
  EXPECT_LE(run_cds(alloc, capped).iterations, 2u);
  // An expired deadline stops the run before any move, unconverged.
  const CdsStats stopped = run_cds(alloc, {.deadline = Deadline::after_ms(0.0)});
  EXPECT_EQ(stopped.iterations, 0u);
  EXPECT_FALSE(stopped.converged);
}

TEST(Cds, AllocationStaysValidThroughout) {
  const Database db = generate_database({.items = 80, .diversity = 2.5, .seed = 10});
  Allocation alloc = run_drp(db, 7).allocation;
  run_cds(alloc);
  std::string error;
  EXPECT_TRUE(alloc.validate(&error)) << error;
  EXPECT_NEAR(alloc.cost(), alloc.cost_recomputed(), 1e-9);
}

}  // namespace
}  // namespace dbs
