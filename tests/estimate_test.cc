#include "workload/estimate.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>

#include "common/check.h"
#include "common/rng.h"
#include "workload/generator.h"

namespace dbs {
namespace {

TEST(Estimate, SumsToOne) {
  const std::vector<Request> window = {{0.0, 0}, {1.0, 1}, {2.0, 1}};
  for (double alpha : {0.0, 0.5, 1.0, 5.0}) {
    const auto f = estimate_frequencies(window, 4, alpha);
    EXPECT_NEAR(std::accumulate(f.begin(), f.end(), 0.0), 1.0, 1e-12)
        << "alpha=" << alpha;
  }
}

TEST(Estimate, RawMleMatchesCounts) {
  const std::vector<Request> window = {{0.0, 0}, {1.0, 1}, {2.0, 1}, {3.0, 1}};
  const auto f = estimate_frequencies(window, 3, 0.0);
  EXPECT_DOUBLE_EQ(f[0], 0.25);
  EXPECT_DOUBLE_EQ(f[1], 0.75);
  EXPECT_DOUBLE_EQ(f[2], 0.0);
}

TEST(Estimate, SmoothingKeepsUnseenItemsPositive) {
  const std::vector<Request> window = {{0.0, 0}};
  const auto f = estimate_frequencies(window, 3, 1.0);
  EXPECT_GT(f[1], 0.0);
  EXPECT_GT(f[2], 0.0);
  EXPECT_GT(f[0], f[1]);
}

TEST(Estimate, EmptyWindowWithSmoothingIsUniform) {
  const auto f = estimate_frequencies({}, 5, 1.0);
  for (double v : f) EXPECT_NEAR(v, 0.2, 1e-12);
}

TEST(Estimate, ConvergesToTrueFrequencies) {
  const Database db = generate_database({.items = 20, .skewness = 1.0, .seed = 1});
  const auto trace = generate_trace(db, {.requests = 200000, .seed = 2});
  const auto f = estimate_frequencies(trace, db.size(), 1.0);
  for (ItemId id = 0; id < db.size(); ++id) {
    EXPECT_NEAR(f[id], db.item(id).freq, 0.01) << "item " << id;
  }
}

TEST(Estimate, RejectsBadInput) {
  EXPECT_THROW(estimate_frequencies({}, 0, 1.0), ContractViolation);
  EXPECT_THROW(estimate_frequencies({}, 3, 0.0), ContractViolation);
  EXPECT_THROW(estimate_frequencies({{0.0, 9}}, 3, 1.0), ContractViolation);
  EXPECT_THROW(estimate_frequencies({{0.0, 0}}, 3, -1.0), ContractViolation);
}

std::vector<Request> random_window(std::size_t items, std::size_t count,
                                   std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Request> window;
  window.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    window.push_back({static_cast<double>(i),
                      static_cast<ItemId>(rng.below(items))});
  }
  return window;
}

TEST(DecayedTracker, NoDecaySingleWindowIsBitIdenticalToBatch) {
  // With ρ = 1 (no forgetting) a single window's decayed counts are exactly
  // the batch counts, and frequencies() uses the same (count+α)/(mass+αN)
  // arithmetic — so the result must match estimate_frequencies bit for bit.
  const auto window = random_window(17, 400, 21);
  DecayedFrequencyTracker tracker(17, /*decay=*/1.0);
  tracker.observe(window);
  const auto streamed = tracker.frequencies();
  const auto batch =
      estimate_frequencies(window, 17, DecayedFrequencyTracker::kLaplaceAlpha);
  ASSERT_EQ(streamed.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(streamed[i], batch[i]) << "item " << i;
  }
}

TEST(DecayedTracker, CountsAreOrderIndependentWithinAWindow) {
  // Folding a window is a sum of independent `+= 1.0` per request, so any
  // permutation of the window must give bitwise-identical state — including
  // on top of non-integer carried-over decayed counts.
  auto window = random_window(11, 300, 22);
  const auto prefix = random_window(11, 150, 23);
  DecayedFrequencyTracker forward(11, 0.7);
  forward.observe(prefix);
  forward.observe(window);
  std::reverse(window.begin(), window.end());
  DecayedFrequencyTracker reversed(11, 0.7);
  reversed.observe(prefix);
  reversed.observe(window);
  Rng rng(24);
  for (std::size_t i = window.size(); i > 1; --i) {
    std::swap(window[i - 1], window[rng.below(i)]);
  }
  DecayedFrequencyTracker shuffled(11, 0.7);
  shuffled.observe(prefix);
  shuffled.observe(window);
  for (std::size_t i = 0; i < 11; ++i) {
    EXPECT_EQ(forward.counts()[i], reversed.counts()[i]) << "item " << i;
    EXPECT_EQ(forward.counts()[i], shuffled.counts()[i]) << "item " << i;
  }
  EXPECT_EQ(forward.effective_requests(), reversed.effective_requests());
  EXPECT_EQ(forward.frequencies(), shuffled.frequencies());
}

TEST(DecayedTracker, DecayDiscountsOldWindows) {
  // Two windows of equal volume on disjoint items: with decay ρ the older
  // window's count is exactly ρ · volume, the newer one's is the volume.
  DecayedFrequencyTracker tracker(2, 0.25);
  tracker.observe({{0.0, 0}, {1.0, 0}, {2.0, 0}, {3.0, 0}});
  tracker.observe({{4.0, 1}, {5.0, 1}, {6.0, 1}, {7.0, 1}});
  EXPECT_DOUBLE_EQ(tracker.counts()[0], 1.0);  // 4 · 0.25
  EXPECT_DOUBLE_EQ(tracker.counts()[1], 4.0);
  EXPECT_DOUBLE_EQ(tracker.effective_requests(), 5.0);
  EXPECT_GT(tracker.frequencies()[1], tracker.frequencies()[0]);
}

TEST(DecayedTracker, EffectiveWindowsFollowsGeometricSum) {
  DecayedFrequencyTracker tracker(3, 0.5);
  EXPECT_DOUBLE_EQ(tracker.effective_windows(), 0.0);
  const std::vector<Request> window = {{0.0, 0}};
  tracker.observe(window);
  EXPECT_DOUBLE_EQ(tracker.effective_windows(), 1.0);
  tracker.observe(window);
  EXPECT_DOUBLE_EQ(tracker.effective_windows(), 1.5);
  tracker.observe(window);
  EXPECT_DOUBLE_EQ(tracker.effective_windows(), 1.75);

  DecayedFrequencyTracker no_decay(3, 1.0);
  no_decay.observe(window);
  no_decay.observe(window);
  EXPECT_DOUBLE_EQ(no_decay.effective_windows(), 2.0);
}

TEST(DecayedTracker, FrequenciesStayNormalizedAndPositive) {
  DecayedFrequencyTracker tracker(5, 0.6);
  for (double v : tracker.frequencies()) EXPECT_DOUBLE_EQ(v, 0.2);  // uniform start
  for (int w = 0; w < 8; ++w) {
    tracker.observe(random_window(5, 40, 30 + static_cast<std::uint64_t>(w)));
    const auto f = tracker.frequencies();
    EXPECT_NEAR(std::accumulate(f.begin(), f.end(), 0.0), 1.0, 1e-9);
    for (double v : f) EXPECT_GT(v, 0.0);
  }
}

TEST(DecayedTracker, RejectedWindowLeavesTheEstimateUnchanged) {
  // The bad window's valid prefix must not be folded in, nor the carried
  // counts decayed: a rejected window is as if it never arrived.
  DecayedFrequencyTracker tracker(3, 0.5);
  tracker.observe({{0.0, 0}, {1.0, 0}, {2.0, 1}});
  const std::vector<double> counts = tracker.counts();
  const std::vector<double> freqs = tracker.frequencies();
  const double mass = tracker.effective_requests();
  const double remembered = tracker.effective_windows();
  EXPECT_THROW(tracker.observe({{3.0, 2}, {4.0, 1}, {5.0, 3}}), ContractViolation);
  EXPECT_EQ(tracker.counts(), counts);
  EXPECT_EQ(tracker.frequencies(), freqs);
  EXPECT_EQ(tracker.effective_requests(), mass);
  EXPECT_EQ(tracker.effective_windows(), remembered);
  EXPECT_EQ(tracker.windows_observed(), 1u);
}

TEST(DecayedTracker, RejectsBadConfig) {
  EXPECT_THROW(DecayedFrequencyTracker(0, 0.5), ContractViolation);
  EXPECT_THROW(DecayedFrequencyTracker(3, 0.0), ContractViolation);
  EXPECT_THROW(DecayedFrequencyTracker(3, 1.5), ContractViolation);
  DecayedFrequencyTracker tracker(3, 0.5);
  EXPECT_THROW(tracker.observe({{0.0, 7}}), ContractViolation);
}

}  // namespace
}  // namespace dbs
