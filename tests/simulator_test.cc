#include "sim/simulator.h"

#include <gtest/gtest.h>

#include "core/drp_cds.h"
#include "model/cost.h"
#include "workload/generator.h"

namespace dbs {
namespace {

TEST(Simulator, EmptyTraceYieldsEmptyReport) {
  const Database db({1.0}, {1.0});
  const Allocation alloc(db, 1);
  const BroadcastProgram program(alloc, 1.0);
  const SimReport report = simulate(program, {});
  EXPECT_EQ(report.requests_served, 0u);
}

TEST(Simulator, SingleRequestHandComputed) {
  const Database db({10.0, 20.0}, {0.5, 0.5});
  const Allocation alloc(db, 1);
  const BroadcastProgram program(alloc, 10.0);
  // Cycle: item0 [0,1), item1 [1,3). Client at 0.2 wants item 0: next start
  // at 3.0, done at 4.0, wait 3.8.
  const SimReport report = simulate(program, {{0.2, 0}});
  EXPECT_EQ(report.requests_served, 1u);
  EXPECT_NEAR(report.mean_wait(), 3.8, 1e-9);
  EXPECT_NEAR(report.sim_end_time, 4.0, 1e-9);
}

TEST(Simulator, EventEngineMatchesClosedFormReplay) {
  const Database db = generate_database({.items = 25, .skewness = 1.0,
                                         .diversity = 1.5, .seed = 1});
  const Allocation alloc = run_drp_cds(db, 3).allocation;
  const BroadcastProgram program(alloc, 10.0);
  const auto trace = generate_trace(db, {.requests = 2000, .arrival_rate = 5.0, .seed = 2});
  const SimReport des = simulate(program, trace);
  const SimReport replay = replay_analytic(program, trace);
  ASSERT_EQ(des.requests_served, replay.requests_served);
  EXPECT_NEAR(des.mean_wait(), replay.mean_wait(), 1e-9);
  EXPECT_NEAR(des.waiting.max, replay.waiting.max, 1e-9);
  for (ChannelId c = 0; c < 3; ++c) {
    EXPECT_NEAR(des.channel_mean_wait[c], replay.channel_mean_wait[c], 1e-9);
    EXPECT_EQ(des.channel_requests[c], replay.channel_requests[c]);
  }
}

TEST(Simulator, EmpiricalWaitConvergesToAnalyticWb) {
  // The headline validation: the DES's mean waiting time approaches Eq. (2).
  const Database db = generate_database({.items = 40, .skewness = 0.8,
                                         .diversity = 2.0, .seed = 3});
  const Allocation alloc = run_drp_cds(db, 4).allocation;
  const double b = 10.0;
  const BroadcastProgram program(alloc, b);
  const auto trace = generate_trace(db, {.requests = 60000, .arrival_rate = 20.0, .seed = 4});
  const SimReport report = simulate(program, trace);
  const double analytic = program_waiting_time(alloc, b);
  EXPECT_NEAR(report.mean_wait(), analytic, 0.05 * analytic)
      << "empirical " << report.mean_wait() << " vs analytic " << analytic;
}

TEST(Simulator, PerChannelWaitsMatchAnalyticChannelModel) {
  const Database db = generate_database({.items = 30, .skewness = 1.0,
                                         .diversity = 1.0, .seed = 5});
  const Allocation alloc = run_drp_cds(db, 3).allocation;
  const double b = 10.0;
  const BroadcastProgram program(alloc, b);
  const auto trace = generate_trace(db, {.requests = 80000, .arrival_rate = 40.0, .seed = 6});
  const SimReport report = simulate(program, trace);
  for (ChannelId c = 0; c < 3; ++c) {
    if (report.channel_requests[c] < 3000) continue;  // too noisy to assert
    const double analytic = channel_waiting_time(alloc, c, b);
    EXPECT_NEAR(report.channel_mean_wait[c], analytic, 0.08 * analytic)
        << "channel " << c;
  }
}

TEST(Simulator, BetterAllocationYieldsShorterEmpiricalWaits) {
  const Database db = generate_database({.items = 60, .skewness = 1.2,
                                         .diversity = 2.0, .seed = 9});
  const auto trace = generate_trace(db, {.requests = 30000, .arrival_rate = 15.0, .seed = 10});
  const Allocation good = run_drp_cds(db, 5).allocation;
  std::vector<ChannelId> rr(db.size());
  for (ItemId id = 0; id < db.size(); ++id) rr[id] = id % 5;
  const Allocation flat(db, 5, std::move(rr));
  const double w_good = simulate(BroadcastProgram(good, 10.0), trace).mean_wait();
  const double w_flat = simulate(BroadcastProgram(flat, 10.0), trace).mean_wait();
  EXPECT_LT(w_good, w_flat);
}

TEST(Simulator, AllRequestsServedEvenWithColdChannels) {
  // One channel holds a never-requested item; simulation must still finish.
  const Database db({1.0, 1.0, 50.0}, {0.5, 0.5, 0.0});
  const Allocation alloc(db, 2, {0, 0, 1});
  const BroadcastProgram program(alloc, 1.0);
  std::vector<Request> trace;
  for (int i = 0; i < 100; ++i) {
    trace.push_back({0.1 * (i + 1), static_cast<ItemId>(i % 2)});
  }
  const SimReport report = simulate(program, trace);
  EXPECT_EQ(report.requests_served, 100u);
}

}  // namespace
}  // namespace dbs
