#include <gtest/gtest.h>

#include "baselines/flat.h"
#include "common/check.h"
#include "core/drp_cds.h"
#include "model/cost.h"
#include "replication/min_wait.h"
#include "replication/multi_program.h"
#include "replication/replicate.h"
#include "sim/program.h"
#include "sim/simulator.h"
#include "workload/generator.h"

namespace dbs {
namespace {

TEST(MinWait, SingleChannelIsHalfCycle) {
  EXPECT_NEAR(expected_min_uniform({6.0}), 3.0, 1e-12);
  EXPECT_NEAR(expected_min_uniform({0.5}), 0.25, 1e-12);
}

TEST(MinWait, TwoEqualCyclesIsThird) {
  // E[min(U1,U2)] with both U[0,C): C/3.
  EXPECT_NEAR(expected_min_uniform({6.0, 6.0}), 2.0, 1e-12);
}

TEST(MinWait, ManyEqualCyclesIsCOverNPlus1) {
  // E[min of n iid U[0,C)] = C/(n+1).
  for (int n = 1; n <= 6; ++n) {
    std::vector<double> cycles(n, 10.0);
    EXPECT_NEAR(expected_min_uniform(cycles), 10.0 / (n + 1), 1e-10) << n;
  }
}

TEST(MinWait, MixedCyclesClosedForm) {
  // C1=2, C2=4: ∫0^2 (1-t/2)(1-t/4) dt = ∫ 1 - 3t/4 + t²/8 = 2 - 1.5 + 1/3.
  EXPECT_NEAR(expected_min_uniform({2.0, 4.0}), 2.0 - 1.5 + 1.0 / 3.0, 1e-12);
}

TEST(MinWait, MatchesMonteCarlo) {
  const std::vector<double> cycles = {3.0, 7.5, 11.0};
  Rng rng(5);
  double sum = 0.0;
  const int n = 400000;
  for (int i = 0; i < n; ++i) {
    double m = 1e18;
    for (double c : cycles) m = std::min(m, rng.uniform(0.0, c));
    sum += m;
  }
  EXPECT_NEAR(expected_min_uniform(cycles), sum / n, 0.01);
}

TEST(MinWait, MoreCopiesNeverSlower) {
  double prev = expected_min_uniform({9.0});
  std::vector<double> cycles = {9.0};
  for (double extra : {12.0, 5.0, 30.0}) {
    cycles.push_back(extra);
    const double now = expected_min_uniform(cycles);
    EXPECT_LE(now, prev + 1e-12);
    prev = now;
  }
}

TEST(MinWait, RejectsBadInput) {
  EXPECT_THROW(expected_min_uniform({}), ContractViolation);
  EXPECT_THROW(expected_min_uniform({1.0, 0.0}), ContractViolation);
}

TEST(MultiProgram, UnreplicatedMatchesEq2AndBroadcastProgram) {
  const Database db = generate_database({.items = 40, .diversity = 2.0, .seed = 1});
  const Allocation alloc = run_drp_cds(db, 4).allocation;
  const MultiProgram multi(db, alloc.members(), 10.0);
  EXPECT_NEAR(multi.expected_wait(), program_waiting_time(alloc, 10.0), 1e-9);

  // Per-request delivery agrees with the partition-based program.
  const BroadcastProgram single(alloc, 10.0);
  const auto trace = generate_trace(db, {.requests = 500, .seed = 2});
  for (const Request& r : trace) {
    EXPECT_NEAR(multi.delivery_time(r.item, r.time),
                single.delivery_time(r.item, r.time), 1e-9);
  }
}

TEST(MultiProgram, ReplicatedDeliveryIsMinOverCopies) {
  // Item 0 on both channels with different phases.
  const Database db({10.0, 20.0, 30.0}, {0.4, 0.3, 0.3});
  Placement placement = {{0, 1}, {0, 2}};
  const MultiProgram multi(db, placement, 10.0);
  // Channel 0 cycle: item0 [0,1), item1 [1,3) -> cycle 3.
  // Channel 1 cycle: item0 [0,1), item2 [1,4) -> cycle 4.
  // Client at t=0.5 wanting item 0: ch0 next start 3 -> done 4; ch1 next
  // start 4 -> done 5. Min = 4.
  EXPECT_NEAR(multi.delivery_time(0, 0.5), 4.0, 1e-12);
  // Client at t=3.2: ch0 start 6 -> 7; ch1 start 4 -> 5. Min = 5.
  EXPECT_NEAR(multi.delivery_time(0, 3.2), 5.0, 1e-12);
  EXPECT_EQ(multi.copies(0).size(), 2u);
}

TEST(MultiProgram, RejectsBadPlacements) {
  const Database db({1.0, 2.0}, {0.5, 0.5});
  EXPECT_THROW(MultiProgram(db, {{0, 0}, {1}}, 10.0), ContractViolation);  // dup
  EXPECT_THROW(MultiProgram(db, {{0}}, 10.0), ContractViolation);  // item 1 missing
  EXPECT_THROW(MultiProgram(db, {{0, 1}}, 0.0), ContractViolation);
  EXPECT_THROW(MultiProgram(db, {{0, 5}}, 10.0), ContractViolation);
}

TEST(Replication, NeverWorseThanBaseAnalytically) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const Database db = generate_database({.items = 50, .skewness = 1.2,
                                           .diversity = 2.0, .seed = seed});
    const Allocation alloc = run_drp_cds(db, 5).allocation;
    const ReplicationResult r = replicate_greedy(alloc, 10.0);
    EXPECT_LE(r.replicated_wait, r.base_wait + 1e-9) << "seed " << seed;
    if (r.copies_added > 0) {
      EXPECT_LT(r.replicated_wait, r.base_wait) << "seed " << seed;
    }
  }
}

TEST(Replication, SubstantiallyImprovesFlatPrograms) {
  // Replication's classic role: compensating for a frequency-agnostic
  // program. From a size-balanced flat start it finds many profitable copies
  // and cuts the analytic wait by double-digit percentages.
  const Database db = generate_database({.items = 60, .skewness = 1.6,
                                         .diversity = 1.5, .seed = 6});
  const Allocation flat = flat_size_balanced(db, 6);
  const ReplicationResult r = replicate_greedy(
      flat, 10.0, {.max_copies_per_item = 3, .max_total_copies = 200});
  EXPECT_GT(r.copies_added, 3u);
  EXPECT_LT(r.replicated_wait, 0.9 * r.base_wait);
}

TEST(Replication, GainShrinksWhenStartIsAlreadyOptimized) {
  // A DRP-CDS allocation leaves little for replication to reclaim — the
  // finding the replication ablation bench quantifies.
  const Database db = generate_database({.items = 60, .skewness = 1.6,
                                         .diversity = 1.5, .seed = 6});
  const ReplicationOptions options{.max_copies_per_item = 3, .max_total_copies = 200};
  const ReplicationResult from_flat =
      replicate_greedy(flat_size_balanced(db, 6), 10.0, options);
  const ReplicationResult from_opt =
      replicate_greedy(run_drp_cds(db, 6).allocation, 10.0, options);
  const double flat_gain = from_flat.base_wait - from_flat.replicated_wait;
  const double opt_gain = from_opt.base_wait - from_opt.replicated_wait;
  EXPECT_LT(opt_gain, flat_gain);
  // And the optimized start still ends ahead overall.
  EXPECT_LT(from_opt.replicated_wait, from_flat.replicated_wait);
}

TEST(Replication, RespectsCopyBudgets) {
  const Database db = generate_database({.items = 40, .skewness = 1.6, .seed = 7});
  const Allocation alloc = run_drp_cds(db, 4).allocation;
  ReplicationOptions options;
  options.max_total_copies = 3;
  const ReplicationResult r = replicate_greedy(alloc, 10.0, options);
  EXPECT_LE(r.copies_added, 3u);
  // max_copies_per_item: every item appears at most twice by default.
  const MultiProgram multi(db, r.placement, 10.0);
  for (ItemId id = 0; id < db.size(); ++id) {
    EXPECT_LE(multi.copies(id).size(), 2u);
  }
}

TEST(Replication, AnalyticModelTracksTraceReplay) {
  // The independent-phase approximation should match replayed traces within
  // a few percent on irregular cycle lengths.
  const Database db = generate_database({.items = 50, .skewness = 1.4,
                                         .diversity = 2.0, .seed = 8});
  const Allocation alloc = run_drp_cds(db, 5).allocation;
  const ReplicationResult r = replicate_greedy(alloc, 10.0, {.max_copies_per_item = 3});
  const MultiProgram multi(db, r.placement, 10.0);
  const auto trace = generate_trace(db, {.requests = 60000, .arrival_rate = 20.0,
                                         .seed = 9});
  const Summary replay = multi.replay(trace);
  EXPECT_NEAR(replay.mean, r.replicated_wait, 0.06 * r.replicated_wait);
}

TEST(Replication, PlacementFromAssignmentRoundTrip) {
  const Database db = generate_database({.items = 20, .seed = 10});
  const Allocation alloc = run_drp_cds(db, 3).allocation;
  const Placement p = alloc.members();
  std::size_t total = 0;
  for (ChannelId c = 0; c < 3; ++c) {
    for (ItemId id : p[c]) EXPECT_EQ(alloc.channel_of(id), c);
    total += p[c].size();
  }
  EXPECT_EQ(total, db.size());
}

}  // namespace
}  // namespace dbs
