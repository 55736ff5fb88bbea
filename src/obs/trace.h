// Observability: scoped-span tracer emitting Chrome trace-event JSON
// (DESIGN.md §10). The output loads directly in chrome://tracing or
// Perfetto: {"traceEvents": [{"name", "ph", "ts", "dur", "pid", "tid"}, ...]}
// with one "X" (complete) event per span.
//
// Tracing is off by default: a disabled ScopedSpan costs one relaxed atomic
// load and never touches the clock, so spans can sit on hot paths
// permanently. Enable with Tracer::global().enable() (perfsuite does this
// when --trace-out is given), run the workload, then write_json_file().
// Timestamps come from the same steady clock as common/stopwatch.h,
// expressed in microseconds since the tracer's construction.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/stopwatch.h"
#include "common/sync.h"

namespace dbs::obs {

/// One recorded trace event (Chrome trace-event fields).
struct TraceEvent {
  std::string name;
  double ts_us = 0.0;   ///< start timestamp, µs since tracer construction
  double dur_us = 0.0;  ///< duration
  std::uint32_t tid = 0;
  char ph = 'X';  ///< Chrome event phase: 'X', a complete span
};

/// Append-only, mutex-guarded event sink with a hard cap (events past the
/// cap are counted in dropped() instead of growing the buffer unboundedly).
class Tracer {
 public:
  /// The process-global tracer DBS_OBS_SPAN records into.
  static Tracer& global();

  void enable() { enabled_.store(true, std::memory_order_relaxed); }
  void disable() { enabled_.store(false, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Microseconds since this tracer was constructed (steady clock).
  double now_us() const { return watch_.seconds() * 1e6; }

  /// Records a completed span ('X'). No-op while disabled.
  void record_complete(std::string_view name, double ts_us, double dur_us);

  /// Copy of everything recorded so far.
  std::vector<TraceEvent> events() const;

  /// Events rejected because the buffer cap was reached.
  std::uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

  /// Discards all recorded events and the dropped count.
  void clear();

  /// Renders the Chrome trace-event JSON document.
  std::string to_json() const;

  /// Writes to_json() to `path`; returns false when the file cannot be opened.
  bool write_json_file(const std::string& path) const;

 private:
  static constexpr std::size_t kMaxEvents = 1u << 20;

  // Concurrency contract: enabled_/dropped_ are lock-free relaxed atomics
  // (read on every span open, written rarely); watch_ is immutable after
  // construction; only the event buffer itself is mutex-guarded.
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> dropped_{0};
  Stopwatch watch_;
  mutable Mutex mutex_;
  std::vector<TraceEvent> events_ DBS_GUARDED_BY(mutex_);
};

/// RAII span: stamps the start time on construction and records a complete
/// event into Tracer::global() on destruction. When tracing is disabled at
/// construction the destructor does nothing, so the steady-state cost of an
/// untraced span is one atomic load.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name)
      : name_(name), active_(Tracer::global().enabled()) {
    if (active_) start_us_ = Tracer::global().now_us();
  }
  ~ScopedSpan() {
    if (active_) {
      Tracer& tracer = Tracer::global();
      tracer.record_complete(name_, start_us_, tracer.now_us() - start_us_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  bool active_;
  double start_us_ = 0.0;
};

}  // namespace dbs::obs
