#include "sim/simulator.h"

#include <algorithm>
#include <unordered_map>

#include "common/check.h"
#include "obs/obs.h"
#include "sim/event_queue.h"

namespace dbs {
namespace {

/// Shared accumulation of per-request results into a SimReport.
class ReportBuilder {
 public:
  explicit ReportBuilder(ChannelId channels)
      : channel_stats_(channels), channel_requests_(channels, 0) {}

  void record(ChannelId channel, double wait, double completion) {
    waits_.push_back(wait);
    channel_stats_[channel].add(wait);
    ++channel_requests_[channel];
    end_time_ = std::max(end_time_, completion);
  }

  SimReport build() const {
    SimReport report;
    report.requests_served = waits_.size();
    report.waiting = summarize(waits_);
    report.channel_mean_wait.reserve(channel_stats_.size());
    for (const RunningStats& s : channel_stats_) {
      report.channel_mean_wait.push_back(s.mean());
    }
    report.channel_requests = channel_requests_;
    report.sim_end_time = end_time_;
    return report;
  }

 private:
  std::vector<double> waits_;
  std::vector<RunningStats> channel_stats_;
  std::vector<std::size_t> channel_requests_;
  double end_time_ = 0.0;
};

}  // namespace

SimReport simulate(const BroadcastProgram& program, const std::vector<Request>& trace) {
  DBS_OBS_SPAN("sim.simulate");
  const ChannelId channels = program.channels();
  ReportBuilder builder(channels);
  if (trace.empty()) return builder.build();

  EventQueue queue;

  // Waiting clients per item: arrival times of clients not yet boarded.
  struct WaitingClient {
    double arrival;
  };
  std::unordered_map<ItemId, std::vector<WaitingClient>> waiting;
  // Clients that boarded the in-flight transmission of an item.
  std::unordered_map<ItemId, std::vector<WaitingClient>> boarded;

  std::size_t outstanding = trace.size();

  // Server process: one self-rescheduling slot loop per channel.
  struct ChannelCursor {
    std::size_t next_slot = 0;
  };
  std::vector<ChannelCursor> cursors(channels);
  // Built once: schedule(c) materializes a channel's slots on every call.
  std::vector<ChannelSchedule> schedules;
  schedules.reserve(channels);
  for (ChannelId c = 0; c < channels; ++c) schedules.push_back(program.schedule(c));

  // Forward declaration trick: store the slot handler in a std::function so
  // it can reschedule itself each cycle.
  std::function<void(ChannelId)> start_slot = [&](ChannelId c) {
    const ChannelSchedule& sched = schedules[c];
    if (sched.slots.empty()) return;  // idle channel: nothing ever broadcast
    const Slot& slot = sched.slots[cursors[c].next_slot];
    const double start_time = queue.now();
    const double end_time = start_time + slot.duration;

    // Board exactly the clients already waiting at transmission start.
    auto it = waiting.find(slot.item);
    if (it != waiting.end() && !it->second.empty()) {
      auto& dst = boarded[slot.item];
      dst.insert(dst.end(), it->second.begin(), it->second.end());
      it->second.clear();
    }

    queue.schedule(end_time, [&, c, item = slot.item, end_time] {
      auto boarded_it = boarded.find(item);
      if (boarded_it != boarded.end()) {
        for (const WaitingClient& client : boarded_it->second) {
          builder.record(c, end_time - client.arrival, end_time);
          --outstanding;
        }
        boarded_it->second.clear();
      }
      cursors[c].next_slot = (cursors[c].next_slot + 1) % schedules[c].slots.size();
      if (outstanding > 0) start_slot(c);  // keep broadcasting while needed
    });
  };

  // Client arrivals.
  for (const Request& request : trace) {
    DBS_CHECK_MSG(request.time >= 0.0, "request times must be non-negative");
    queue.schedule(request.time, [&, request] {
      waiting[request.item].push_back(WaitingClient{request.time});
    });
  }

  // Kick off every channel at t = 0.
  for (ChannelId c = 0; c < channels; ++c) {
    queue.schedule(0.0, [&, c] { start_slot(c); });
  }

  // Depth right before draining = every arrival plus one kick per channel,
  // the high-water mark for a run that only ever pops and reschedules.
  DBS_OBS_HISTOGRAM_OBSERVE("sim.queue_depth", queue.pending());
  const std::size_t fired = queue.run_all();
  DBS_OBS_COUNTER_INC("sim.runs");
  DBS_OBS_COUNTER_ADD("sim.events_fired", fired);
  DBS_OBS_COUNTER_ADD("sim.requests_served", trace.size());
  DBS_CHECK_MSG(outstanding == 0, outstanding << " requests never completed");
  return builder.build();
}

SimReport replay_analytic(const BroadcastProgram& program,
                          const std::vector<Request>& trace) {
  DBS_OBS_SPAN("sim.replay_analytic");
  ReportBuilder builder(program.channels());
  for (const Request& request : trace) {
    const double done = program.delivery_time(request.item, request.time);
    builder.record(program.channel_of(request.item), done - request.time, done);
  }
  return builder.build();
}

}  // namespace dbs
