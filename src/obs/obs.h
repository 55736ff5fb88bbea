// Observability macro layer — the only way hot paths touch the metrics
// registry and tracer (DESIGN.md §10).
//
// Compile-time kill switch: building with -DDBS_OBS=OFF defines
// DBS_OBS_ENABLED=0 and every macro below expands to a no-op that leaves its
// arguments unevaluated (odr-used via sizeof, so kill-switched builds still
// type-check the call sites). With the switch on (the default), each macro
// resolves its instrument once per call site through a function-local static
// reference, so each call runs a guard check and one relaxed atomic op. That
// is not free inside a hot function: the static and the atomic
// read-modify-write change how the compiler optimizes the code around them.
// One counter add inside `sort_ids_by_key`, after its radix loops, slowed the
// N = 10^6 `Database` build by about a fifth (GCC 12, -O3), where the same add
// in the caller cost nothing measurable. So publish from the caller of a hot
// loop: have the loop return its count, and add it once outside.
//
// Metric names must be snake_case.dotted.namespace ("core.cds.iterations");
// the registry DBS_CHECKs this at registration and tools/dbs_lint.py's
// obs-metric-names rule enforces it statically.
#pragma once

#ifndef DBS_OBS_ENABLED
#define DBS_OBS_ENABLED 1
#endif

#if DBS_OBS_ENABLED

#include "obs/metrics.h"
#include "obs/trace.h"

#define DBS_OBS_CONCAT_IMPL(a, b) a##b
#define DBS_OBS_CONCAT(a, b) DBS_OBS_CONCAT_IMPL(a, b)

/// Adds `delta` to the counter `name`. Prefer one add per run over one per
/// inner-loop trip: accumulate locally, then publish.
#define DBS_OBS_COUNTER_ADD(name, delta)                                     \
  do {                                                                       \
    static ::dbs::obs::Counter& dbs_obs_instrument =                         \
        ::dbs::obs::MetricsRegistry::global().counter(name);                 \
    dbs_obs_instrument.add(static_cast<std::uint64_t>(delta));               \
  } while (0)

/// Increments the counter `name` by one.
#define DBS_OBS_COUNTER_INC(name) DBS_OBS_COUNTER_ADD(name, 1)

/// Sets the gauge `name` to `value`.
#define DBS_OBS_GAUGE_SET(name, value)                                       \
  do {                                                                       \
    static ::dbs::obs::Gauge& dbs_obs_instrument =                           \
        ::dbs::obs::MetricsRegistry::global().gauge(name);                   \
    dbs_obs_instrument.set(static_cast<double>(value));                      \
  } while (0)

/// Records `value` into the fixed-bucket histogram `name`
/// (Histogram::default_bounds() layout).
#define DBS_OBS_HISTOGRAM_OBSERVE(name, value)                               \
  do {                                                                       \
    static ::dbs::obs::Histogram& dbs_obs_instrument =                       \
        ::dbs::obs::MetricsRegistry::global().histogram(name);               \
    dbs_obs_instrument.observe(static_cast<double>(value));                  \
  } while (0)

/// Opens a scoped span covering the rest of the enclosing block; records a
/// Chrome "X" event when Tracer::global() is enabled, else costs one atomic
/// load. `name` must be a string literal (stored by pointer until close).
#define DBS_OBS_SPAN(name) \
  ::dbs::obs::ScopedSpan DBS_OBS_CONCAT(dbs_obs_span_, __LINE__)(name)

#else  // DBS_OBS_ENABLED == 0: every macro is a no-op with unevaluated args.

#define DBS_OBS_COUNTER_ADD(name, delta) \
  do {                                   \
    (void)sizeof(name);                  \
    (void)sizeof(delta);                 \
  } while (0)
#define DBS_OBS_COUNTER_INC(name) \
  do {                            \
    (void)sizeof(name);           \
  } while (0)
#define DBS_OBS_GAUGE_SET(name, value) \
  do {                                 \
    (void)sizeof(name);                \
    (void)sizeof(value);               \
  } while (0)
#define DBS_OBS_HISTOGRAM_OBSERVE(name, value) \
  do {                                         \
    (void)sizeof(name);                        \
    (void)sizeof(value);                       \
  } while (0)
#define DBS_OBS_SPAN(name) static_cast<void>(sizeof(name))

#endif  // DBS_OBS_ENABLED
