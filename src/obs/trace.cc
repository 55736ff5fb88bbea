#include "obs/trace.h"

#include <cstdio>
#include <functional>
#include <thread>

#include "common/strings.h"

namespace dbs::obs {

namespace {

/// Stable small id for the calling thread; Chrome only needs distinctness.
std::uint32_t this_thread_tid() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t tid = next.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

}  // namespace

Tracer& Tracer::global() {
  static Tracer tracer;
  return tracer;
}

void Tracer::record_complete(std::string_view name, double ts_us, double dur_us) {
  if (!enabled()) return;
  const std::uint32_t tid = this_thread_tid();
  const MutexLock lock(mutex_);
  if (events_.size() >= kMaxEvents) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  events_.push_back(TraceEvent{std::string(name), ts_us, dur_us, tid, 'X'});
}

std::vector<TraceEvent> Tracer::events() const {
  const MutexLock lock(mutex_);
  return events_;
}

void Tracer::clear() {
  const MutexLock lock(mutex_);
  events_.clear();
  dropped_.store(0, std::memory_order_relaxed);
}

std::string Tracer::to_json() const {
  const std::vector<TraceEvent> snapshot = events();
  std::string out = "{\"traceEvents\": [";
  char buf[128];
  for (std::size_t i = 0; i < snapshot.size(); ++i) {
    const TraceEvent& e = snapshot[i];
    out += i == 0 ? "\n" : ",\n";
    out += "  {\"name\": \"" + json_escape(e.name) + "\", ";
    std::snprintf(buf, sizeof buf,
                  "\"ph\": \"X\", \"ts\": %.3f, \"dur\": %.3f, "
                  "\"pid\": 1, \"tid\": %u}",
                  e.ts_us, e.dur_us, e.tid);
    out += buf;
  }
  out += "\n]}\n";
  return out;
}

bool Tracer::write_json_file(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string json = to_json();
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  return true;
}

}  // namespace dbs::obs
