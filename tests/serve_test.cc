#include "serve/server_loop.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>

#include "common/check.h"
#include "common/distributions.h"
#include "core/cds.h"
#include "core/multilevel.h"
#include "model/cost.h"
#include "obs/metrics.h"
#include "obs/obs.h"  // for the DBS_OBS_ENABLED default
#include "workload/drift.h"
#include "workload/generator.h"

namespace dbs {
namespace {

std::vector<double> sample_sizes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> sizes(n);
  for (double& z : sizes) z = sample_item_size(rng, 2.0);
  return sizes;
}

/// Draws a request window from a fixed popularity vector.
std::vector<Request> window_from(const std::vector<double>& freqs, std::size_t count,
                                 Rng& rng) {
  const AliasSampler sampler(freqs);
  std::vector<Request> window;
  window.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    window.push_back({static_cast<double>(i), static_cast<ItemId>(sampler.sample(rng))});
  }
  return window;
}

TEST(Drift, PreservesSizesAndNormalization) {
  const Database db = generate_database({.items = 30, .diversity = 2.0, .seed = 1});
  Rng rng(2);
  const Database drifted = drift_frequencies(db, rng);
  ASSERT_EQ(drifted.size(), db.size());
  double sum = 0.0;
  for (ItemId id = 0; id < db.size(); ++id) {
    EXPECT_DOUBLE_EQ(drifted.item(id).size, db.item(id).size);
    sum += drifted.item(id).freq;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Drift, ActuallyChangesFrequencies) {
  const Database db = generate_database({.items = 30, .seed = 3});
  Rng rng(4);
  const Database drifted = drift_frequencies(db, rng, {.transfers = 10, .intensity = 0.8});
  bool changed = false;
  for (ItemId id = 0; id < db.size(); ++id) {
    changed |= std::abs(drifted.item(id).freq - db.item(id).freq) > 1e-9;
  }
  EXPECT_TRUE(changed);
}

TEST(Drift, ZeroIntensityIsIdentity) {
  const Database db = generate_database({.items = 10, .seed = 5});
  Rng rng(6);
  const Database same = drift_frequencies(db, rng, {.transfers = 5, .intensity = 0.0});
  for (ItemId id = 0; id < db.size(); ++id) {
    EXPECT_NEAR(same.item(id).freq, db.item(id).freq, 1e-12);
  }
}

TEST(ServerLoop, StartsWithValidProgram) {
  const BroadcastServerLoop server(sample_sizes(40, 1), {.channels = 4});
  const std::shared_ptr<const ProgramSnapshot> snap = server.snapshot();
  std::string error;
  EXPECT_TRUE(snap->alloc.validate(&error)) << error;
  EXPECT_EQ(snap->version, 0u);
  EXPECT_EQ(snap->db.size(), 40u);
}

TEST(ServerLoop, LearnsSkewAndCutsWaitingTime) {
  // Uniform prior; actual traffic is strongly skewed. After a few windows
  // the program must beat the initial uniform-estimate program.
  BroadcastServerLoop server(sample_sizes(60, 2), {.channels = 6});
  const double initial_wait = program_waiting_time(server.snapshot()->alloc, 10.0);

  const auto true_freqs = zipf_probabilities(60, 1.4);
  Rng rng(7);
  EpochReport last;
  for (int epoch = 0; epoch < 8; ++epoch) {
    last = server.observe_window(window_from(true_freqs, 4000, rng));
  }
  const std::shared_ptr<const ProgramSnapshot> snap = server.snapshot();
  EXPECT_EQ(snap->version, 8u);
  EXPECT_LT(last.waiting_time, initial_wait);
  // The report describes the program now on air.
  EXPECT_EQ(last.waiting_time, snap->waiting_time);
  EXPECT_NEAR(snap->alloc.cost(), snap->cost, 1e-9);
}

TEST(ServerLoop, MildDriftPublishesLocalOptima) {
  BroadcastServerLoop server(sample_sizes(50, 3), {.channels = 5});
  auto freqs = zipf_probabilities(50, 1.0);
  Rng rng(8);
  // Warm up on stable traffic, then drift mildly.
  for (int epoch = 0; epoch < 4; ++epoch) {
    server.observe_window(window_from(freqs, 3000, rng));
  }
  for (int epoch = 0; epoch < 8; ++epoch) {
    // mild drift: rotate 2% of mass
    const double moved = 0.02 * freqs[0];
    freqs[0] -= moved;
    freqs[(epoch * 7 + 3) % 50] += moved;
    const EpochReport r = server.observe_window(window_from(freqs, 3000, rng));
    // Every epoch's re-plan ends at a single-move local optimum of the
    // estimate it was planned against, like DRP-CDS.
    const std::shared_ptr<const ProgramSnapshot> snap = server.snapshot();
    EXPECT_LE(best_move(snap->alloc).gain, kCdsMinGain)
        << "epoch " << r.epoch;
  }
}

TEST(ServerLoop, AllocationAlwaysValidAcrossEpochs) {
  BroadcastServerLoop server(sample_sizes(30, 4), {.channels = 3});
  const auto freqs = zipf_probabilities(30, 0.8);
  Rng rng(9);
  for (int epoch = 0; epoch < 5; ++epoch) {
    server.observe_window(window_from(freqs, 1000, rng));
    const std::shared_ptr<const ProgramSnapshot> snap = server.snapshot();
    std::string error;
    EXPECT_TRUE(snap->alloc.validate(&error)) << error;
    EXPECT_EQ(&snap->alloc.database(), &snap->db)
        << "allocation must reference its snapshot's own database";
  }
}

TEST(ServerLoop, ReportsRepairAndRebuildWallTimes) {
  BroadcastServerLoop server(sample_sizes(50, 6), {.channels = 5});
  const auto freqs = zipf_probabilities(50, 1.2);
  Rng rng(10);
  for (int epoch = 0; epoch < 3; ++epoch) {
    const EpochReport r = server.observe_window(window_from(freqs, 2000, rng));
    // repair_ms times the re-plan; the loop has no rebuild path, so the
    // rebuild fields e2ebench still reads stay false and 0.
    EXPECT_GE(r.repair_ms, 0.0);
    EXPECT_FALSE(r.escalated);
    EXPECT_FALSE(r.adopted_rebuild);
    EXPECT_EQ(r.rebuild_ms, 0.0);
  }
}

TEST(ServerLoop, ReportsControlLoopState) {
  BroadcastServerLoop server(sample_sizes(40, 12), {.channels = 4});
  const auto freqs = zipf_probabilities(40, 1.0);
  Rng rng(13);
  double staleness = 0.0;
  for (int epoch = 1; epoch <= 5; ++epoch) {
    const EpochReport r = server.observe_window(window_from(freqs, 1500, rng));
    EXPECT_EQ(r.epoch, static_cast<std::size_t>(epoch));
    // Snapshot versions are strictly monotone and track the epoch.
    EXPECT_EQ(r.version, static_cast<std::size_t>(epoch));
    const std::shared_ptr<const ProgramSnapshot> snap = server.snapshot();
    EXPECT_EQ(snap->version, r.version);
    EXPECT_NEAR(snap->cost, snap->alloc.cost(), 1e-12);
    EXPECT_EQ(r.waiting_time, snap->waiting_time);
    // Churn is a share of the catalogue.
    EXPECT_GE(r.churn, 0.0);
    EXPECT_LE(r.churn, 1.0);
    // Estimator staleness grows monotonically toward 1/(1-decay).
    EXPECT_GT(r.estimator_staleness, staleness);
    EXPECT_LE(r.estimator_staleness,
              1.0 / (1.0 - server.config().tracker_decay) + 1e-12);
    staleness = r.estimator_staleness;
  }
}

TEST(ServerLoop, ChurnMatchesConsecutiveSnapshots) {
  // The serve_drift/rotate30 perfsuite script at its first seed: 6 steady
  // epochs, 18 epochs whose popularity ranks rotate by 7, then 6 steady
  // epochs.
  constexpr std::size_t kItems = 120;
  constexpr ChannelId kChannels = 6;
  Rng rng(11000);
  std::vector<double> sizes(kItems);
  for (double& z : sizes) z = sample_item_size(rng, 2.0);
  BroadcastServerLoop server(std::move(sizes), {.channels = kChannels, .bandwidth = 10.0});
  std::vector<double> freqs = zipf_probabilities(kItems, 0.8);
  std::shared_ptr<const ProgramSnapshot> previous = server.snapshot();
  double churn_sum = 0.0;
  for (int epoch = 0; epoch < 30; ++epoch) {
    if (epoch >= 6 && epoch < 24) {
      std::rotate(freqs.begin(), freqs.begin() + 7, freqs.end());
    }
    const EpochReport r = server.observe_window(window_from(freqs, 3000, rng));
    const std::shared_ptr<const ProgramSnapshot> current = server.snapshot();
    const std::vector<ChannelId>& before = previous->alloc.assignment();
    const std::vector<ChannelId>& after = current->alloc.assignment();
    // The on-air program is a fresh plan of this epoch's estimate with its
    // channels renamed, never a different partition...
    const std::vector<ChannelId> plan =
        run_multilevel(current->db, kChannels).allocation.assignment();
    std::vector<ChannelId> rename(kChannels, kChannels);
    std::size_t moved = 0;
    std::size_t moved_unrenamed = 0;
    for (std::size_t x = 0; x < kItems; ++x) {
      if (rename[plan[x]] == kChannels) rename[plan[x]] = after[x];
      EXPECT_EQ(rename[plan[x]], after[x]) << "epoch " << r.epoch << " item " << x;
      if (after[x] != before[x]) ++moved;
      if (plan[x] != before[x]) ++moved_unrenamed;
    }
    // ...the renaming never moves more items than the plan's own labels
    // would, and the report's churn is exactly the share that moved.
    EXPECT_LE(moved, moved_unrenamed) << "epoch " << r.epoch;
    EXPECT_EQ(r.churn, static_cast<double>(moved) / kItems) << "epoch " << r.epoch;
    churn_sum += r.churn;
    previous = current;
  }
  // The rotation keeps moving items: the loop follows the drift.
  EXPECT_GT(churn_sum, 0.0);
}

TEST(ServerLoop, RejectedWindowLeavesTheLoopUnchanged) {
  // A window naming an unknown item throws; the next snapshot must be the
  // one a loop that never saw the bad window publishes.
  const auto freqs = zipf_probabilities(30, 1.0);
  Rng rng(21);
  const std::vector<Request> first = window_from(freqs, 500, rng);
  const std::vector<Request> second = window_from(freqs, 500, rng);
  std::vector<Request> bad = second;  // a valid prefix, then item 30 of 30
  bad.push_back({static_cast<double>(bad.size()), 30});

  BroadcastServerLoop clean(sample_sizes(30, 20), {.channels = 3});
  BroadcastServerLoop rejected(sample_sizes(30, 20), {.channels = 3});
  clean.observe_window(first);
  rejected.observe_window(first);
  EXPECT_THROW(rejected.observe_window(bad), ContractViolation);
  EXPECT_EQ(rejected.snapshot()->version, 1u);

  const EpochReport want = clean.observe_window(second);
  const EpochReport got = rejected.observe_window(second);
  const std::shared_ptr<const ProgramSnapshot> a = clean.snapshot();
  const std::shared_ptr<const ProgramSnapshot> b = rejected.snapshot();
  EXPECT_EQ(b->version, a->version);
  EXPECT_TRUE(std::ranges::equal(b->db.freqs(), a->db.freqs()));
  EXPECT_EQ(b->alloc.assignment(), a->alloc.assignment());
  EXPECT_EQ(b->cost, a->cost);
  EXPECT_EQ(got.estimator_staleness, want.estimator_staleness);
}

TEST(ServerLoop, CountsEpochsInTheGlobalRegistry) {
  // Operators read the loop's cumulative telemetry from the process-global
  // registry (obs_dump, perfsuite --metrics-out), not from the report.
  BroadcastServerLoop server(sample_sizes(30, 7), {.channels = 3});
  const auto freqs = zipf_probabilities(30, 1.0);
  Rng rng(11);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
#if DBS_OBS_ENABLED
  const std::uint64_t epochs = registry.counter("serve.epochs").value();
  const std::uint64_t moves = registry.counter("serve.repair_moves").value();
  const EpochReport r = server.observe_window(window_from(freqs, 500, rng));
  EXPECT_EQ(registry.counter("serve.epochs").value(), epochs + 1);
  EXPECT_EQ(registry.counter("serve.repair_moves").value(), moves + r.repair_moves);
#else
  server.observe_window(window_from(freqs, 500, rng));
  for (const obs::CounterSample& c : registry.snapshot().counters) {
    EXPECT_NE(c.name, "serve.epochs");
  }
#endif
}

TEST(ServerLoop, RejectsBadConfig) {
  EXPECT_THROW(BroadcastServerLoop(sample_sizes(5, 5), {.channels = 9}),
               ContractViolation);
  EXPECT_THROW(BroadcastServerLoop(sample_sizes(5, 5),
                                   {.channels = 2, .bandwidth = 0.0}),
               ContractViolation);
  EXPECT_THROW(BroadcastServerLoop(sample_sizes(5, 5),
                                   {.channels = 2, .tracker_decay = 0.0}),
               ContractViolation);
  EXPECT_THROW(BroadcastServerLoop(sample_sizes(5, 5),
                                   {.channels = 2, .tracker_decay = 1.5}),
               ContractViolation);
}

}  // namespace
}  // namespace dbs
