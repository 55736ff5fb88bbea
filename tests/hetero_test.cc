#include "hetero/hetero.h"

#include <gtest/gtest.h>

#include "common/check.h"
#include "core/drp_cds.h"
#include "model/cost.h"
#include "workload/generator.h"

namespace dbs {
namespace {

TEST(Hetero, EqualBandwidthsReduceToEq2) {
  const Database db = generate_database({.items = 40, .diversity = 2.0, .seed = 1});
  const Allocation alloc = run_drp_cds(db, 4).allocation;
  const std::vector<double> equal(4, 10.0);
  EXPECT_NEAR(hetero_wait(alloc, equal), program_waiting_time(alloc, 10.0), 1e-9);
}

TEST(Hetero, MoveGainMatchesRecomputedDelta) {
  const Database db = generate_database({.items = 30, .diversity = 2.0, .seed = 2});
  Allocation alloc = run_drp_cds(db, 3).allocation;
  const std::vector<double> bw = {25.0, 10.0, 4.0};
  Rng rng(3);
  for (int trial = 0; trial < 60; ++trial) {
    const ItemId id = static_cast<ItemId>(rng.below(db.size()));
    const ChannelId to = static_cast<ChannelId>(rng.below(3));
    const double predicted = hetero_move_gain(alloc, bw, id, to);
    const double before = hetero_wait(alloc, bw);
    Allocation copy = alloc;
    copy.move(id, to);
    EXPECT_NEAR(before - hetero_wait(copy, bw), predicted, 1e-9);
  }
}

TEST(Hetero, SchedulerReachesLocalOptimum) {
  const Database db = generate_database({.items = 80, .skewness = 1.0,
                                         .diversity = 2.0, .seed = 4});
  const std::vector<double> bw = {40.0, 20.0, 10.0, 5.0, 2.5};
  const HeteroResult r = schedule_hetero(db, bw);
  EXPECT_EQ(r.wait, hetero_wait(r.allocation, bw));
  // No single move may improve at the local optimum.
  for (ItemId id = 0; id < db.size(); ++id) {
    for (ChannelId c = 0; c < 5; ++c) {
      EXPECT_LE(hetero_move_gain(r.allocation, bw, id, c), 1e-9);
    }
  }
}

TEST(Hetero, BeatsBandwidthBlindScheduling) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const Database db = generate_database({.items = 90, .skewness = 1.0,
                                           .diversity = 2.0, .seed = seed});
    const std::vector<double> bw = {40.0, 10.0, 10.0, 2.0};
    const Allocation blind = run_drp_cds(db, 4).allocation;
    const HeteroResult tuned = schedule_hetero(db, bw);
    EXPECT_LE(tuned.wait, hetero_wait(blind, bw) + 1e-9) << "seed " << seed;
  }
}

TEST(Hetero, FastChannelsCarryMoreAccessProbabilityPerSize) {
  // The fastest channel should end with a higher frequency density than the
  // slowest (hot content gravitates to fast spectrum).
  const Database db = generate_database({.items = 120, .skewness = 1.2,
                                         .diversity = 2.0, .seed = 6});
  const std::vector<double> bw = {50.0, 10.0, 10.0, 1.0};
  const HeteroResult r = schedule_hetero(db, bw);
  const Allocation& a = r.allocation;
  // The slow channel pays 1/b per unit of load, so the optimizer drains
  // access probability from it; the fast channel can afford both more
  // frequency and more bytes. (Its *cycle* may well be longer — capacity is
  // cheap there.)
  EXPECT_GT(a.freq_of(0), a.freq_of(3));
  EXPECT_GT(a.size_of(0), a.size_of(3));
  // Per-frequency service on the fast channel is better: F-weighted cycle.
  if (a.freq_of(3) > 1e-9) {
    EXPECT_LT(a.size_of(0) / bw[0] * a.freq_of(0) + a.size_of(3) / bw[3] * a.freq_of(3),
              a.size_of(0) / bw[3] * a.freq_of(0) + a.size_of(3) / bw[0] * a.freq_of(3))
        << "swapping the fast and slow channels must hurt";
  }
}

TEST(Hetero, PermutingBandwidthsPermutesNothingEssential) {
  // The scheduler's result quality must not depend on the order in which the
  // bandwidth values are listed.
  const Database db = generate_database({.items = 60, .diversity = 2.0, .seed = 7});
  const HeteroResult a = schedule_hetero(db, {40.0, 10.0, 2.0});
  const HeteroResult b = schedule_hetero(db, {2.0, 40.0, 10.0});
  EXPECT_NEAR(a.wait, b.wait, 1e-6);
}

TEST(Hetero, SingleChannel) {
  const Database db = generate_database({.items = 10, .seed = 8});
  const HeteroResult r = schedule_hetero(db, {5.0});
  EXPECT_NEAR(r.wait, program_waiting_time(r.allocation, 5.0), 1e-9);
}

TEST(Hetero, RejectsBadInput) {
  const Database db = generate_database({.items = 10, .seed = 9});
  const Allocation alloc = run_drp_cds(db, 2).allocation;
  EXPECT_THROW(hetero_wait(alloc, {10.0}), ContractViolation);        // size mismatch
  EXPECT_THROW(hetero_wait(alloc, {10.0, 0.0}), ContractViolation);   // zero bw
  EXPECT_THROW(schedule_hetero(db, {}), ContractViolation);
  EXPECT_THROW(schedule_hetero(db, {10.0, -1.0}), ContractViolation);
}

}  // namespace
}  // namespace dbs
