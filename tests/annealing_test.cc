#include "baselines/annealing.h"

#include <gtest/gtest.h>

#include "baselines/brute_force.h"
#include "baselines/flat.h"
#include "common/check.h"
#include "core/drp_cds.h"
#include "workload/generator.h"

namespace dbs {
namespace {

AnnealOptions quick_anneal() { return {.steps = 40'000}; }

TEST(Annealing, ProducesValidAllocation) {
  const Database db = generate_database({.items = 50, .diversity = 2.0, .seed = 1});
  const AnnealResult r = run_annealing(db, 5, quick_anneal());
  std::string error;
  EXPECT_TRUE(r.allocation.validate(&error)) << error;
  EXPECT_NEAR(r.cost, r.allocation.cost(), 1e-12);
  EXPECT_GT(r.accepted, 0u);
}

TEST(Annealing, DeterministicForFixedSeed) {
  const Database db = generate_database({.items = 40, .seed = 2});
  const AnnealResult a = run_annealing(db, 4, quick_anneal());
  const AnnealResult b = run_annealing(db, 4, quick_anneal());
  EXPECT_EQ(a.allocation.assignment(), b.allocation.assignment());
  EXPECT_EQ(a.accepted, b.accepted);
}

TEST(Annealing, BeatsItsGreedyStartingPoint) {
  const Database db = generate_database({.items = 100, .skewness = 1.0,
                                         .diversity = 2.0, .seed = 3});
  const double greedy_cost = flat_round_robin(db, 6).cost();  // loose yardstick
  const AnnealResult r = run_annealing(db, 6, quick_anneal());
  EXPECT_LT(r.cost, greedy_cost);
}

TEST(Annealing, NearExactOptimumOnSmallInstances) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Database db = generate_database({.items = 12, .diversity = 2.0,
                                           .seed = seed});
    const auto exact = brute_force_optimal(db, 3);
    ASSERT_TRUE(exact.has_value());
    const AnnealResult r = run_annealing(db, 3, quick_anneal());
    EXPECT_LE(r.cost, exact->cost * 1.02 + 1e-12) << "seed " << seed;
    EXPECT_GE(r.cost, exact->cost - 1e-9) << "seed " << seed;
  }
}

TEST(Annealing, CompetitiveWithDrpCds) {
  // SA is a reference metaheuristic: within 10% of DRP-CDS on the paper's
  // default workload (usually much closer).
  const Database db = generate_database({.items = 120, .skewness = 0.8,
                                         .diversity = 2.0, .seed = 4});
  const double heuristic = run_drp_cds(db, 6).final_cost;
  const AnnealResult r = run_annealing(db, 6, quick_anneal());
  EXPECT_LT(r.cost, 1.10 * heuristic);
}

TEST(Annealing, SingleChannelTrivial) {
  const Database db = generate_database({.items = 8, .seed = 6});
  const AnnealResult r = run_annealing(db, 1, quick_anneal());
  EXPECT_NEAR(r.cost, db.total_size(), 1e-9);
  EXPECT_EQ(r.accepted, 0u);
}

TEST(Annealing, RejectsBadOptions) {
  const Database db = generate_database({.items = 8, .seed = 7});
  EXPECT_THROW(run_annealing(db, 0, quick_anneal()), ContractViolation);
  EXPECT_THROW(run_annealing(db, 9, quick_anneal()), ContractViolation);
}

}  // namespace
}  // namespace dbs
