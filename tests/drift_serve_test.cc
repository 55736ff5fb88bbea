// Drift-scenario harness for the online re-allocation service (DESIGN.md
// §12): scripted workload drift — hot-set rotation, Zipf-parameter shift,
// and a flash crowd built with workload/drift.h — driven through
// BroadcastServerLoop, asserting that
//   * the program on air stays within a bound of a fresh DRP-CDS rebuild at
//     every epoch (the repair-quality contract),
//   * rebuild escalations fire when (and only when) the scripted regression
//     crosses the trigger — steady traffic after warm-up never rebuilds,
// plus a reader/writer stress test over the versioned snapshot publication
// (the TSan CI flavor is where its data-race coverage is armed).
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/distributions.h"
#include "common/rng.h"
#include "core/drp_cds.h"
#include "model/cost.h"
#include "obs/metrics.h"
#include "obs/obs.h"  // for the DBS_OBS_ENABLED default
#include "serve/server_loop.h"
#include "workload/drift.h"
#include "workload/generator.h"

namespace dbs {
namespace {

// Repair-quality bound checked against a fresh DRP-CDS rebuild every epoch:
// the loop's kEscalateThreshold (0.05) plus slack for trigger latency
// and for drift the trigger cannot see — when the achievable optimum *falls*
// (e.g. skew sharpening), repair trails the fresh rebuild without ever
// regressing against its own reference, so the bound carries the full lag.
constexpr double kRepairQualityBound = 0.12;

std::vector<double> sample_sizes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> sizes(n);
  for (double& z : sizes) z = sample_item_size(rng, 2.0);
  return sizes;
}

std::vector<Request> window_from(const std::vector<double>& freqs,
                                 std::size_t count, Rng& rng) {
  const AliasSampler sampler(freqs);
  std::vector<Request> window;
  window.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    window.push_back(
        {static_cast<double>(i), static_cast<ItemId>(sampler.sample(rng))});
  }
  return window;
}

// One scripted epoch: feed the window, then re-plan from scratch on the very
// database the server just planned against and check the on-air program is
// within the bound of that fresh reference.
EpochReport step_and_check(BroadcastServerLoop& server,
                           const std::vector<double>& freqs, std::size_t count,
                           Rng& rng) {
  const EpochReport r = server.observe_window(window_from(freqs, count, rng));
  const std::shared_ptr<const ProgramSnapshot> snap = server.snapshot();
  const DrpCdsResult fresh = run_drp_cds(snap->db, server.config().channels);
  const double on_air = snap->alloc.cost();
  EXPECT_LE(on_air, fresh.final_cost * (1.0 + kRepairQualityBound))
      << "epoch " << r.epoch << ": repaired program drifted too far from a "
      << "fresh rebuild (escalated=" << r.escalated << ")";
  return r;
}

std::uint64_t adoptions_counter() {
  return obs::MetricsRegistry::global().counter("serve.rebuild_adoptions").value();
}

TEST(DriftServe, HotSetRotationStaysNearFreshRebuild) {
  const std::size_t n = 60;
  BroadcastServerLoop server(sample_sizes(n, 41), {.channels = 6});
  std::vector<double> freqs = zipf_probabilities(n, 1.2);
  Rng rng(42);

  // Warm up from the uniform prior on stable traffic.
  for (int epoch = 0; epoch < 6; ++epoch) {
    step_and_check(server, freqs, 3000, rng);
  }
  // Rotate the hot set: every epoch the popularity ranks shift by five
  // positions, so the hottest items keep changing identity.
  std::size_t escalations_during_rotation = 0;
  for (int epoch = 0; epoch < 8; ++epoch) {
    std::rotate(freqs.begin(), freqs.begin() + 5, freqs.end());
    const EpochReport r = step_and_check(server, freqs, 3000, rng);
    escalations_during_rotation += r.escalated ? 1 : 0;
  }
  // Rotation of this magnitude invalidates the carried program repeatedly;
  // the trigger must have noticed at least once.
  EXPECT_GE(escalations_during_rotation, 1u);

  // Back to steady traffic: after a settling period, no epoch escalates.
  for (int epoch = 0; epoch < 4; ++epoch) {
    step_and_check(server, freqs, 3000, rng);
  }
  for (int epoch = 0; epoch < 6; ++epoch) {
    const EpochReport r = step_and_check(server, freqs, 3000, rng);
    EXPECT_FALSE(r.escalated) << "steady epoch " << r.epoch << " rebuilt";
  }
}

TEST(DriftServe, ZipfParameterShiftTracksSkewChange) {
  const std::size_t n = 50;
  BroadcastServerLoop server(sample_sizes(n, 43), {.channels = 5});
  Rng rng(44);
  double theta = 0.4;
  for (int epoch = 0; epoch < 5; ++epoch) {
    step_and_check(server, zipf_probabilities(n, theta), 3000, rng);
  }
  // The skew parameter ramps 0.4 → 1.5: the popularity *shape* changes while
  // the rank order stays fixed, so the optimal cost scale moves a lot.
  for (int epoch = 0; epoch < 11; ++epoch) {
    theta += 0.1;
    step_and_check(server, zipf_probabilities(n, theta), 3000, rng);
  }
  std::size_t late_escalations = 0;
  for (int epoch = 0; epoch < 8; ++epoch) {
    const EpochReport r =
        step_and_check(server, zipf_probabilities(n, theta), 3000, rng);
    late_escalations += r.escalated ? 1 : 0;
  }
  // Once the shift is over the service settles back into pure repair.
  EXPECT_LE(late_escalations, 1u);
}

TEST(DriftServe, FlashCrowdFiresTriggerThenSteadyStateNeverRebuilds) {
  // Long estimator memory (ρ = 0.9): after the shock the estimate is a
  // mixture of old and new popularity for several windows, which flattens
  // the distribution and lifts the achievable cost — exactly the regression
  // the trigger watches for. A fast-forgetting tracker would let repair
  // absorb the crowd in one epoch and the trigger (correctly) stay silent.
  const std::size_t n = 60;
  const ServerLoopConfig config{.channels = 6, .tracker_decay = 0.9};
  BroadcastServerLoop server(sample_sizes(n, 45), config);
  std::vector<double> freqs = zipf_probabilities(n, 1.0);
  Rng rng(46);

  for (int epoch = 0; epoch < 8; ++epoch) {
    step_and_check(server, freqs, 3000, rng);
  }
  // Warm-up is over: the next stretch is steady, so zero epochs may rebuild.
  for (int epoch = 0; epoch < 6; ++epoch) {
    const EpochReport r = step_and_check(server, freqs, 3000, rng);
    EXPECT_FALSE(r.escalated) << "steady epoch " << r.epoch << " escalated";
    EXPECT_FALSE(r.adopted_rebuild);
  }
  [[maybe_unused]] const std::uint64_t adoptions_before = adoptions_counter();
  [[maybe_unused]] std::uint64_t adoptions = 0;

  // Flash crowd, scripted through workload/drift.h: a burst of high-intensity
  // mass transfers yanks the popularity estimate out from under the program.
  {
    Rng drift_rng(47);
    const Database shocked = drift_frequencies(
        Database(sample_sizes(n, 45), freqs), drift_rng,
        {.transfers = 40, .intensity = 1.0});
    freqs.assign(shocked.freqs().begin(), shocked.freqs().end());
  }
  bool fired = false;
  EpochReport last;
  for (int epoch = 0; epoch < 6; ++epoch) {
    last = server.observe_window(window_from(freqs, 3000, rng));
    fired |= last.escalated;
    adoptions += last.adopted_rebuild ? 1 : 0;
  }
  EXPECT_TRUE(fired) << "the scripted flash crowd never fired the trigger";

  // And the loop re-converges: the bound holds again and steady traffic
  // stops escalating.
  for (int epoch = 0; epoch < 4; ++epoch) {
    last = step_and_check(server, freqs, 3000, rng);
    adoptions += last.adopted_rebuild ? 1 : 0;
  }
  for (int epoch = 0; epoch < 5; ++epoch) {
    last = step_and_check(server, freqs, 3000, rng);
    EXPECT_FALSE(last.escalated)
        << "post-crowd steady epoch " << last.epoch << " escalated";
    adoptions += last.adopted_rebuild ? 1 : 0;
  }
#if DBS_OBS_ENABLED
  // The global rebuild_adoptions counter moved by exactly the adoptions the
  // epoch reports recorded, all of them after the scripted shock.
  EXPECT_EQ(adoptions_counter(), adoptions_before + adoptions);
#endif
}

TEST(DriftServe, ReversedPopularityEscalatesOnCostRegression) {
  // Reversing the popularity ranks is a regression big enough to clear the
  // threshold; every epoch escalates exactly when its excess reaches it.
  const std::size_t n = 40;
  BroadcastServerLoop server(sample_sizes(n, 48),
                             {.channels = 4, .tracker_decay = 0.9});
  std::vector<double> freqs = zipf_probabilities(n, 1.3);
  Rng rng(49);
  for (int epoch = 0; epoch < 8; ++epoch) {
    server.observe_window(window_from(freqs, 4000, rng));
  }
  std::reverse(freqs.begin(), freqs.end());  // hottest items become coldest
  bool saw_regression = false;
  for (int epoch = 0; epoch < 6 && !saw_regression; ++epoch) {
    const EpochReport r = server.observe_window(window_from(freqs, 4000, rng));
    EXPECT_EQ(r.escalated, r.cost_excess >= BroadcastServerLoop::kEscalateThreshold);
    saw_regression = r.escalated;
  }
  EXPECT_TRUE(saw_regression);
}

// Reader/writer stress over the RCU snapshot publication. Readers validate
// every snapshot they observe: versions must be monotone per reader, the
// allocation must be bound to the snapshot's own database, and the recorded
// cost must match a from-scratch recomputation of the assignment. The TSan
// CI flavor (DBS_SANITIZE=thread) turns any publication race into a hard
// failure; in other flavors this is a liveness/consistency smoke.
TEST(SnapshotStress, ConcurrentReadersSeeConsistentVersionedSnapshots) {
  const std::size_t n = 50;
  BroadcastServerLoop server(sample_sizes(n, 51), {.channels = 5});
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> snapshots_read{0};
  std::atomic<std::uint64_t> violations{0};

  const auto reader = [&] {
    std::size_t last_version = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const std::shared_ptr<const ProgramSnapshot> s = server.snapshot();
      snapshots_read.fetch_add(1, std::memory_order_relaxed);
      if (s->version < last_version) violations.fetch_add(1);
      last_version = s->version;
      if (&s->alloc.database() != &s->db) violations.fetch_add(1);
      if (s->alloc.items() != s->db.size()) violations.fetch_add(1);
      const double recomputed = s->alloc.cost_recomputed();
      const double scale = recomputed > 1.0 ? recomputed : 1.0;
      if (std::abs(recomputed - s->cost) > 1e-9 * scale) violations.fetch_add(1);
      if (!(s->waiting_time > 0.0)) violations.fetch_add(1);
    }
  };

  std::vector<std::thread> readers;
  for (int t = 0; t < 8; ++t) readers.emplace_back(reader);

  // The epochs are fast enough to finish before the reader threads are even
  // scheduled, so force the overlap: start publishing only once the readers
  // are demonstrably reading, and keep them running on the final program
  // until every reader has had time for many validations.
  while (snapshots_read.load(std::memory_order_relaxed) == 0) {
    std::this_thread::yield();
  }

  // Writer: epochs under rotating popularity so repairs, escalations and
  // adoptions all publish while the readers hammer the pointer.
  std::vector<double> freqs = zipf_probabilities(n, 1.2);
  Rng rng(52);
  for (int epoch = 0; epoch < 12; ++epoch) {
    std::rotate(freqs.begin(), freqs.begin() + 7, freqs.end());
    server.observe_window(window_from(freqs, 1500, rng));
  }
  const std::uint64_t floor = snapshots_read.load(std::memory_order_relaxed) + 64;
  while (snapshots_read.load(std::memory_order_relaxed) < floor) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(violations.load(), 0u);
  EXPECT_GT(snapshots_read.load(), 0u);
  EXPECT_EQ(server.snapshot()->version, 12u);
}

}  // namespace
}  // namespace dbs
