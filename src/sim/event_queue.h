// A minimal discrete-event engine: a time-ordered queue of callbacks with
// stable FIFO ordering among simultaneous events.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

namespace dbs {

/// Priority queue of (time, handler) pairs. Events scheduled for the same
/// instant fire in scheduling order, which keeps simulations deterministic.
class EventQueue {
 public:
  using Handler = std::function<void()>;

  /// Schedules `handler` at absolute time `when`. `when` must not precede the
  /// current simulation time (no scheduling into the past).
  void schedule(double when, Handler handler);

  /// Fires the next event; returns false when the queue is empty.
  bool step();

  /// Runs until the queue drains. Returns the number of events fired.
  std::size_t run_all();

  /// Current simulation time: the timestamp of the last fired event.
  double now() const { return now_; }

  bool empty() const { return heap_.empty(); }
  std::size_t pending() const { return heap_.size(); }

 private:
  struct Entry {
    double when;
    std::uint64_t seq;
    Handler handler;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  std::uint64_t next_seq_ = 0;
  double now_ = 0.0;
};

}  // namespace dbs
