#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/check.h"
#include "common/strings.h"

namespace dbs::obs {

namespace {

/// Shortest round-trippable rendering of a double for the JSON exporter.
std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

Histogram::Histogram() : bounds_(default_bounds()), buckets_(bounds_.size() + 1) {}

void Histogram::observe(double value) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const std::size_t index = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[index].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

std::vector<std::uint64_t> Histogram::counts() const {
  std::vector<std::uint64_t> out(buckets_.size());
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

void Histogram::reset() {
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

std::vector<double> Histogram::default_bounds() {
  std::vector<double> bounds;
  bounds.reserve(31);
  for (int exp = -10; exp <= 20; ++exp) {
    bounds.push_back(std::ldexp(1.0, exp));
  }
  return bounds;
}

bool valid_metric_name(std::string_view name) {
  std::size_t components = 0;
  std::size_t start = 0;
  while (start <= name.size()) {
    const std::size_t dot = std::min(name.find('.', start), name.size());
    const std::string_view part = name.substr(start, dot - start);
    if (part.empty() || part.front() < 'a' || part.front() > 'z') return false;
    for (char c : part) {
      const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_';
      if (!ok) return false;
    }
    ++components;
    start = dot + 1;
    if (dot == name.size()) break;
  }
  return components >= 2;
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

namespace {

/// Registration guard shared by the three instrument kinds: `name` must be
/// well-formed and must not already name an instrument of another kind.
void check_name(std::string_view name, bool taken_elsewhere) {
  DBS_CHECK_MSG(valid_metric_name(name),
                "metric name '" << std::string(name)
                                << "' is not snake_case.dotted.namespace");
  DBS_CHECK_MSG(!taken_elsewhere, "metric name '" << std::string(name)
                                                  << "' already registered as a "
                                                     "different instrument kind");
}

}  // namespace

Counter& MetricsRegistry::counter(std::string_view name) {
  const MutexLock lock(mutex_);
  const auto it = counters_.find(name);
  if (it != counters_.end()) return *it->second;
  check_name(name, gauges_.count(name) != 0 || histograms_.count(name) != 0);
  return *counters_.emplace(std::string(name), std::make_unique<Counter>())
              .first->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  const MutexLock lock(mutex_);
  const auto it = gauges_.find(name);
  if (it != gauges_.end()) return *it->second;
  check_name(name, counters_.count(name) != 0 || histograms_.count(name) != 0);
  return *gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  const MutexLock lock(mutex_);
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return *it->second;
  check_name(name, counters_.count(name) != 0 || gauges_.count(name) != 0);
  return *histograms_.emplace(std::string(name), std::make_unique<Histogram>())
              .first->second;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  const MutexLock lock(mutex_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snap.counters.push_back(CounterSample{name, counter->value()});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges.push_back(GaugeSample{name, gauge->value()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    snap.histograms.push_back(HistogramSample{name, histogram->bounds(),
                                              histogram->counts(), histogram->count(),
                                              histogram->sum()});
  }
  return snap;
}

std::size_t MetricsRegistry::size() const {
  const MutexLock lock(mutex_);
  return counters_.size() + gauges_.size() + histograms_.size();
}

void MetricsRegistry::reset() {
  const MutexLock lock(mutex_);
  for (const auto& [name, counter] : counters_) counter->reset();
  for (const auto& [name, gauge] : gauges_) gauge->reset();
  for (const auto& [name, histogram] : histograms_) histogram->reset();
}

std::string to_json(const MetricsSnapshot& snapshot) {
  std::string out = "{\n  \"schema\": \"dbs-metrics-v1\",\n  \"counters\": [";
  for (std::size_t i = 0; i < snapshot.counters.size(); ++i) {
    const CounterSample& c = snapshot.counters[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"name\": \"" + json_escape(c.name) +
           "\", \"value\": " + std::to_string(c.value) + "}";
  }
  out += "\n  ],\n  \"gauges\": [";
  for (std::size_t i = 0; i < snapshot.gauges.size(); ++i) {
    const GaugeSample& g = snapshot.gauges[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"name\": \"" + json_escape(g.name) +
           "\", \"value\": " + json_number(g.value) + "}";
  }
  out += "\n  ],\n  \"histograms\": [";
  for (std::size_t i = 0; i < snapshot.histograms.size(); ++i) {
    const HistogramSample& h = snapshot.histograms[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"name\": \"" + json_escape(h.name) +
           "\", \"count\": " + std::to_string(h.count) +
           ", \"sum\": " + json_number(h.sum) + ", \"buckets\": [";
    // Only occupied buckets are emitted: the default layout has 31 bounds,
    // nearly all empty for any one instrument.
    bool first = true;
    for (std::size_t b = 0; b < h.counts.size(); ++b) {
      if (h.counts[b] == 0) continue;
      if (!first) out += ", ";
      first = false;
      const std::string le =
          b < h.bounds.size() ? json_number(h.bounds[b]) : "\"inf\"";
      out += "{\"le\": " + le + ", \"count\": " + std::to_string(h.counts[b]) + "}";
    }
    out += "]}";
  }
  out += "\n  ]\n}\n";
  return out;
}

bool write_json_file(const MetricsSnapshot& snapshot, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string json = to_json(snapshot);
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  return true;
}

}  // namespace dbs::obs
