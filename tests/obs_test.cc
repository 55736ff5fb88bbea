#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <thread>
#include <vector>

#include "common/check.h"
#include "obs/obs.h"
#include "obs/trace.h"

namespace dbs::obs {
namespace {

// Each test uses its own registry instance so tests stay independent of the
// process-global one (which library code touches whenever DBS_OBS is on).

TEST(MetricName, AcceptsDottedSnakeCase) {
  EXPECT_TRUE(valid_metric_name("core.cds.moves_evaluated"));
  EXPECT_TRUE(valid_metric_name("serve.epoch"));
  EXPECT_TRUE(valid_metric_name("a.b2_c.d"));
}

TEST(MetricName, RejectsMalformedNames) {
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name("flat"));          // needs >= 2 components
  EXPECT_FALSE(valid_metric_name("Core.cds.runs")); // uppercase
  EXPECT_FALSE(valid_metric_name("core..runs"));    // empty component
  EXPECT_FALSE(valid_metric_name(".core.runs"));
  EXPECT_FALSE(valid_metric_name("core.runs."));
  EXPECT_FALSE(valid_metric_name("core.2fast"));    // digit-leading component
  EXPECT_FALSE(valid_metric_name("core.cds-runs")); // dash
  EXPECT_FALSE(valid_metric_name("core cds.runs")); // space
}

TEST(MetricsRegistry, RegistersLazilyAndReturnsStableRefs) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.size(), 0u);
  Counter& c1 = registry.counter("test.counter");
  Counter& c2 = registry.counter("test.counter");
  EXPECT_EQ(&c1, &c2);
  EXPECT_EQ(registry.size(), 1u);
  c1.inc();
  c2.add(4);
  EXPECT_EQ(c1.value(), 5u);
}

TEST(MetricsRegistry, RejectsInvalidNamesAndKindCollisions) {
  MetricsRegistry registry;
  // dbs-lint: allow(obs-metric-names) — the invalid name is the test subject
  EXPECT_THROW(registry.counter("NotValid"), ContractViolation);
  registry.counter("test.name");
  EXPECT_THROW(registry.gauge("test.name"), ContractViolation);
  EXPECT_THROW(registry.histogram("test.name"), ContractViolation);
}

TEST(MetricsRegistry, SnapshotIsSortedAndComplete) {
  MetricsRegistry registry;
  registry.counter("z.last").inc();
  registry.counter("a.first").add(2);
  registry.gauge("m.gauge").set(1.5);
  registry.histogram("h.hist").observe(3.0);

  const MetricsSnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].name, "a.first");
  EXPECT_EQ(snap.counters[0].value, 2u);
  EXPECT_EQ(snap.counters[1].name, "z.last");
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(snap.gauges[0].value, 1.5);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].count, 1u);
  EXPECT_EQ(snap.size(), 4u);
  EXPECT_FALSE(snap.empty());
}

TEST(MetricsRegistry, ResetZeroesValuesButKeepsRegistrations) {
  MetricsRegistry registry;
  registry.counter("test.counter").add(7);
  registry.gauge("test.gauge").set(2.0);
  registry.histogram("test.hist").observe(1.0);
  registry.reset();
  EXPECT_EQ(registry.size(), 3u);
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counters[0].value, 0u);
  EXPECT_DOUBLE_EQ(snap.gauges[0].value, 0.0);
  EXPECT_EQ(snap.histograms[0].count, 0u);
  EXPECT_DOUBLE_EQ(snap.histograms[0].sum, 0.0);
}

TEST(Histogram, BucketsObservationsByUpperBound) {
  Histogram histogram;
  const std::vector<double>& bounds = histogram.bounds();
  auto bucket_of = [&](double bound) {
    return static_cast<std::size_t>(std::find(bounds.begin(), bounds.end(), bound) -
                                    bounds.begin());
  };
  histogram.observe(1e-6);   // le=2^-10, the first bound
  histogram.observe(0.75);   // le=1
  histogram.observe(1.0);    // le=1 (inclusive upper bound)
  histogram.observe(5.0);    // le=8
  histogram.observe(4e6);    // overflow, past 2^20
  const std::vector<std::uint64_t> counts = histogram.counts();
  ASSERT_EQ(counts.size(), bounds.size() + 1);
  EXPECT_EQ(counts[0], 1u);
  EXPECT_EQ(counts[bucket_of(0.5)], 0u);
  EXPECT_EQ(counts[bucket_of(1.0)], 2u);
  EXPECT_EQ(counts[bucket_of(4.0)], 0u);
  EXPECT_EQ(counts[bucket_of(8.0)], 1u);
  EXPECT_EQ(counts.back(), 1u);
  EXPECT_EQ(histogram.count(), 5u);
  EXPECT_DOUBLE_EQ(histogram.sum(), 1e-6 + 0.75 + 1.0 + 5.0 + 4e6);
}

TEST(Histogram, DefaultBoundsCoverMicrosecondsToMegaunits) {
  const std::vector<double> bounds = Histogram::default_bounds();
  ASSERT_FALSE(bounds.empty());
  EXPECT_LT(bounds.front(), 1e-3);
  EXPECT_GT(bounds.back(), 1e6);
  EXPECT_EQ(std::adjacent_find(bounds.begin(), bounds.end(), std::greater_equal<>()),
            bounds.end())
      << "bounds must be strictly increasing";
}

TEST(MetricsRegistry, ConcurrentUpdatesAreLossless) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      // Registration races on the same names on purpose.
      for (int i = 0; i < kIncrements; ++i) {
        registry.counter("race.counter").inc();
        registry.histogram("race.hist").observe(1.0);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(registry.counter("race.counter").value(),
            static_cast<std::uint64_t>(kThreads) * kIncrements);
  EXPECT_EQ(registry.histogram("race.hist").count(),
            static_cast<std::uint64_t>(kThreads) * kIncrements);
  EXPECT_DOUBLE_EQ(registry.histogram("race.hist").sum(),
                   static_cast<double>(kThreads) * kIncrements);
}

TEST(Exporters, JsonCarriesEveryInstrument) {
  MetricsRegistry registry;
  registry.counter("test.counter").add(3);
  registry.gauge("test.gauge").set(0.25);
  registry.histogram("test.hist").observe(2.0);
  const std::string json = to_json(registry.snapshot());
  EXPECT_NE(json.find("\"schema\": \"dbs-metrics-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"test.counter\", \"value\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"test.gauge\", \"value\": 0.25"), std::string::npos);
  EXPECT_NE(json.find("\"test.hist\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos);
}

TEST(Macros, RecordIntoTheGlobalRegistry) {
#if DBS_OBS_ENABLED
  // The global registry accumulates across tests in this binary; measure
  // deltas instead of absolutes.
  const std::uint64_t before =
      MetricsRegistry::global().counter("obs_test.macro_counter").value();
  DBS_OBS_COUNTER_INC("obs_test.macro_counter");
  DBS_OBS_COUNTER_ADD("obs_test.macro_counter", 2);
  EXPECT_EQ(MetricsRegistry::global().counter("obs_test.macro_counter").value(),
            before + 3);
  DBS_OBS_GAUGE_SET("obs_test.macro_gauge", 4.5);
  EXPECT_DOUBLE_EQ(MetricsRegistry::global().gauge("obs_test.macro_gauge").value(),
                   4.5);
  DBS_OBS_HISTOGRAM_OBSERVE("obs_test.macro_hist", 1.0);
  EXPECT_GE(MetricsRegistry::global().histogram("obs_test.macro_hist").count(), 1u);
#else
  // DBS_OBS=OFF build: the macros must be inert (the dedicated
  // obs_killswitch_test covers this in depth in every flavor).
  DBS_OBS_COUNTER_INC("obs_test.macro_counter");
  for (const CounterSample& c : MetricsRegistry::global().snapshot().counters) {
    EXPECT_NE(c.name, "obs_test.macro_counter");
  }
#endif
}

TEST(Tracer, DisabledTracerRecordsNothing) {
  Tracer& tracer = Tracer::global();
  tracer.disable();
  tracer.clear();
  { DBS_OBS_SPAN("obs_test.disabled_span"); }
  { ScopedSpan span("obs_test.disabled_scoped_span"); }
  EXPECT_TRUE(tracer.events().empty());
}

TEST(Tracer, EnabledTracerRecordsSpansWithDurations) {
  Tracer& tracer = Tracer::global();
  tracer.clear();
  tracer.enable();
  // Direct ScopedSpan use (not the macro) so this exercises the tracer
  // itself in DBS_OBS=OFF builds too.
  {
    ScopedSpan outer("obs_test.outer");
    { ScopedSpan inner("obs_test.inner"); }
  }
  tracer.disable();
  const std::vector<TraceEvent> events = tracer.events();
  ASSERT_EQ(events.size(), 2u);
  // Spans close inner-first.
  EXPECT_EQ(events[0].name, "obs_test.inner");
  EXPECT_EQ(events[0].ph, 'X');
  EXPECT_EQ(events[1].name, "obs_test.outer");
  EXPECT_EQ(events[1].ph, 'X');
  EXPECT_GE(events[1].dur_us, events[0].dur_us);
  EXPECT_LE(events[1].ts_us, events[0].ts_us);
  tracer.clear();
}

}  // namespace
}  // namespace dbs::obs
