#include "api/scheduler.h"

#include <gtest/gtest.h>

#include <iterator>

#include "common/check.h"
#include "model/cost.h"
#include "workload/generator.h"

namespace dbs {
namespace {

TEST(Registry, AllAlgorithmsHaveUniqueNames) {
  const auto& algos = all_algorithms();
  ASSERT_FALSE(algos.empty());
  for (std::size_t i = 0; i < algos.size(); ++i) {
    for (std::size_t j = i + 1; j < algos.size(); ++j) {
      EXPECT_NE(algos[i].name, algos[j].name);
      EXPECT_NE(algos[i].id, algos[j].id);
    }
  }
}

TEST(Registry, NameRoundTrip) {
  for (const AlgorithmInfo& info : all_algorithms()) {
    const auto parsed = algorithm_from_name(info.name);
    ASSERT_TRUE(parsed.has_value()) << info.name;
    EXPECT_EQ(*parsed, info.id);
    EXPECT_EQ(algorithm_name(info.id), info.name);
  }
}

TEST(Registry, UnknownNameIsNullopt) {
  EXPECT_FALSE(algorithm_from_name("definitely-not-an-algorithm").has_value());
  EXPECT_FALSE(algorithm_from_name("").has_value());
}

TEST(Registry, EveryEnumeratorIsRegistered) {
  // The full enumerator list, spelled out: adding an Algorithm without a
  // registry row used to make algorithm_name() silently answer "unknown";
  // now it must round-trip — and the registry may not hold strays either.
  const Algorithm all[] = {
      Algorithm::kFlat,      Algorithm::kFlatBalanced, Algorithm::kGreedy,
      Algorithm::kVfk,       Algorithm::kDrp,          Algorithm::kDrpCds,
      Algorithm::kMultilevel, Algorithm::kOrderedDp,   Algorithm::kGopt,
      Algorithm::kAnneal,    Algorithm::kBruteForce,   Algorithm::kPortfolio,
  };
  EXPECT_EQ(all_algorithms().size(), std::size(all));
  for (Algorithm a : all) {
    const std::string_view name = algorithm_name(a);
    const auto parsed = algorithm_from_name(name);
    ASSERT_TRUE(parsed.has_value()) << name;
    EXPECT_EQ(*parsed, a);
  }
}

TEST(Registry, UnregisteredEnumeratorFailsLoudly) {
  EXPECT_THROW(algorithm_name(static_cast<Algorithm>(999)), ContractViolation);
}

TEST(Schedule, RunsEveryAlgorithmOnAModestInstance) {
  const Database db = generate_database({.items = 14, .skewness = 0.9,
                                         .diversity = 1.5, .seed = 1});
  for (const AlgorithmInfo& info : all_algorithms()) {
    ScheduleRequest request;
    request.algorithm = info.id;
    request.channels = 3;
    request.gopt.population = 40;
    request.gopt.generations = 80;  // kPortfolio's GA racer runs it too
    const ScheduleResult result = schedule(db, request);
    std::string error;
    EXPECT_TRUE(result.allocation.validate(&error)) << info.name << ": " << error;
    EXPECT_NEAR(result.cost, result.allocation.cost(), 1e-12) << info.name;
    EXPECT_GE(result.elapsed_ms, 0.0);
  }
}

TEST(Schedule, WaitingTimeMatchesCostModel) {
  const Database db = generate_database({.items = 30, .seed = 2});
  ScheduleRequest request;
  request.algorithm = Algorithm::kDrpCds;
  request.channels = 4;
  request.bandwidth = 25.0;
  const ScheduleResult result = schedule(db, request);
  EXPECT_NEAR(result.waiting_time, program_waiting_time(result.allocation, 25.0),
              1e-12);
}

TEST(Schedule, QualityOrderingHolds) {
  // drp-cds <= drp; ordered-dp <= drp; everything >= brute-force.
  const Database db = generate_database({.items = 14, .skewness = 1.0,
                                         .diversity = 2.0, .seed = 3});
  auto cost_of = [&](Algorithm a) {
    ScheduleRequest r;
    r.algorithm = a;
    r.channels = 4;
    r.gopt.population = 60;
    r.gopt.generations = 150;
    return schedule(db, r).cost;
  };
  const double exact = cost_of(Algorithm::kBruteForce);
  const double drp = cost_of(Algorithm::kDrp);
  const double drpcds = cost_of(Algorithm::kDrpCds);
  const double dp = cost_of(Algorithm::kOrderedDp);
  EXPECT_LE(drpcds, drp + 1e-9);
  EXPECT_LE(dp, drp + 1e-9);
  for (double c : {drp, drpcds, dp, cost_of(Algorithm::kVfk),
                   cost_of(Algorithm::kFlat), cost_of(Algorithm::kGreedy)}) {
    EXPECT_GE(c, exact - 1e-9);
  }
}

TEST(Schedule, PropagatesContractViolations) {
  const Database db = generate_database({.items = 4, .seed = 4});
  ScheduleRequest request;
  request.channels = 10;  // more channels than items
  EXPECT_THROW(schedule(db, request), ContractViolation);
}

TEST(Schedule, EveryAlgorithmRejectsMoreChannelsThanItems) {
  const Database db = generate_database({.items = 6, .seed = 4});
  for (const AlgorithmInfo& info : all_algorithms()) {
    ScheduleRequest request;
    request.algorithm = info.id;
    request.channels = static_cast<ChannelId>(db.size() + 1);
    EXPECT_THROW(schedule(db, request), ContractViolation) << info.name;
  }
}

TEST(Schedule, DrpOptionsArePassedThrough) {
  const Database db = generate_database({.items = 40, .diversity = 2.0, .seed = 5});
  ScheduleRequest request;
  request.algorithm = Algorithm::kDrp;
  request.channels = 5;
  const double br_cost = schedule(db, request).cost;
  request.drp_cds.drp.ordering = ItemOrdering::kSizeAsc;
  const double size_cost = schedule(db, request).cost;
  // Different orderings must actually change the result on diverse data.
  EXPECT_NE(br_cost, size_cost);
}

}  // namespace
}  // namespace dbs
