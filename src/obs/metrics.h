// Observability: thread-safe metrics registry (DESIGN.md §10).
//
// Three instrument kinds — monotonic counters, last-value gauges and
// fixed-bucket histograms — registered by dotted snake_case name
// ("core.cds.moves_evaluated") in a process-global registry. Instruments are
// created lazily on first use, live for the life of the process (references
// handed out stay valid forever) and are updated lock-free; only
// registration and snapshotting take the registry mutex. Hot paths never
// call the registry directly: they go through the DBS_OBS_* macros in
// obs/obs.h, which cache the instrument reference in a function-local static
// and compile to nothing when the DBS_OBS kill switch is off.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/sync.h"

namespace dbs::obs {

/// Monotonic event counter. inc()/add() are lock-free and thread-safe.
class Counter {
 public:
  void inc() { value_.fetch_add(1, std::memory_order_relaxed); }
  /// Adds `delta` occurrences (use one add per run, not one per inner-loop
  /// trip, to keep hot-path overhead at a single atomic op).
  void add(std::uint64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-value gauge (queue depth, chosen K, ...). set() is lock-free.
class Gauge {
 public:
  void set(double value) { value_.store(value, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram with Prometheus-style cumulative-friendly layout:
/// bucket i counts observations ≤ bounds[i]; one extra overflow bucket counts
/// the rest. Every histogram has default_bounds(); observe() is lock-free.
class Histogram {
 public:
  Histogram();

  void observe(double value);

  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket counts; the last entry is the overflow bucket.
  std::vector<std::uint64_t> counts() const;
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  void reset();

  /// Default bounds: powers of two from 2^-10 to 2^20 — wide enough for both
  /// millisecond timings and integer sizes without per-site tuning.
  static std::vector<double> default_bounds();

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> buckets_;  // bounds_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Point-in-time copy of one counter.
struct CounterSample {
  std::string name;
  std::uint64_t value = 0;
};

/// Point-in-time copy of one gauge.
struct GaugeSample {
  std::string name;
  double value = 0.0;
};

/// Point-in-time copy of one histogram.
struct HistogramSample {
  std::string name;
  std::vector<double> bounds;
  std::vector<std::uint64_t> counts;  ///< per bucket; last entry = overflow
  std::uint64_t count = 0;
  double sum = 0.0;
};

/// Consistent-enough snapshot of every registered instrument, sorted by
/// name. Cheap when nothing is registered (the DBS_OBS=OFF case).
struct MetricsSnapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;

  bool empty() const { return counters.empty() && gauges.empty() && histograms.empty(); }
  std::size_t size() const { return counters.size() + gauges.size() + histograms.size(); }
};

/// True iff `name` is a valid metric name: two or more dot-separated
/// snake_case components, each starting with a lowercase letter
/// ("serve.epoch.repair_ms"). Enforced at registration and by dbs_lint's
/// obs-metric-names rule.
bool valid_metric_name(std::string_view name);

/// Name → instrument registry. Lookup/registration is mutex-guarded (the
/// compiler-checked capability contract below); the returned references are
/// stable for the life of the process, and the instruments themselves update
/// lock-free, so only registration and snapshotting ever contend.
class MetricsRegistry {
 public:
  /// The process-global registry the DBS_OBS_* macros record into.
  static MetricsRegistry& global();

  /// Returns the counter `name`, creating it on first use. Requires a valid
  /// metric name not already registered as a different kind.
  Counter& counter(std::string_view name);

  /// Returns the gauge `name`, creating it on first use.
  Gauge& gauge(std::string_view name);

  /// Returns the histogram `name` with Histogram::default_bounds().
  Histogram& histogram(std::string_view name);

  /// Copies every instrument's current value, sorted by name.
  MetricsSnapshot snapshot() const;

  /// Number of registered instruments (0 whenever DBS_OBS=OFF, since the
  /// macros are the only registration path in library code).
  std::size_t size() const;

  /// Zeroes every instrument's value but keeps registrations (per-run deltas
  /// in benches and tests).
  void reset();

 private:
  // Concurrency contract: the three name→instrument maps are guarded by
  // mutex_; the instruments the unique_ptrs point at are internally
  // lock-free (relaxed atomics) and are deliberately *not* lock-guarded —
  // handed-out references outlive any registry critical section.
  mutable Mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      DBS_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
      DBS_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_
      DBS_GUARDED_BY(mutex_);
};

/// Renders a snapshot as pretty-printed JSON (schema "dbs-metrics-v1"), the
/// format perfsuite --metrics-out writes and tools/obs_dump reads.
std::string to_json(const MetricsSnapshot& snapshot);

/// Writes to_json() to `path`; returns false when the file cannot be opened.
bool write_json_file(const MetricsSnapshot& snapshot, const std::string& path);

}  // namespace dbs::obs
