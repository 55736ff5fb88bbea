#include "sim/program.h"

#include <algorithm>
#include <cmath>
#include <span>

#include "common/check.h"

namespace dbs {

BroadcastProgram::BroadcastProgram(const Allocation& alloc, double bandwidth)
    : db_(&alloc.database()), bandwidth_(bandwidth), channel_(alloc.assignment()) {
  DBS_CHECK(bandwidth > 0.0);
  const std::span<const double> sizes = db_->sizes();
  const std::span<const std::size_t> counts = alloc.channel_counts();
  group_begin_.resize(counts.size() + 1, 0);
  for (std::size_t c = 0; c < counts.size(); ++c) {
    group_begin_[c + 1] = group_begin_[c] + counts[c];
  }
  std::vector<std::size_t> next(group_begin_.begin(), group_begin_.end() - 1);
  cycle_.assign(counts.size(), 0.0);
  start_.resize(sizes.size());
  grouped_.resize(sizes.size());
  // One pass in id order: each channel's cycle accumulates z/b by ascending
  // id, so every start is the sum of the durations before it.
  for (ItemId id = 0; id < sizes.size(); ++id) {
    const ChannelId c = channel_[id];
    const double start = cycle_[c];
    start_[id] = start;
    cycle_[c] = start + sizes[id] / bandwidth;
    grouped_[next[c]++] = id;
  }
}

ChannelSchedule BroadcastProgram::schedule(ChannelId c) const {
  DBS_CHECK(c < channels());
  const std::span<const double> sizes = db_->sizes();
  ChannelSchedule sched;
  sched.cycle_time = cycle_[c];
  sched.slots.reserve(group_begin_[c + 1] - group_begin_[c]);
  for (std::size_t i = group_begin_[c]; i < group_begin_[c + 1]; ++i) {
    const ItemId id = grouped_[i];
    sched.slots.push_back(Slot{id, start_[id], sizes[id] / bandwidth_});
  }
  return sched;
}

ChannelId BroadcastProgram::channel_of(ItemId item) const {
  DBS_CHECK(item < channel_.size());
  return channel_[item];
}

double BroadcastProgram::delivery_time(ItemId item, double t) const {
  DBS_CHECK(item < channel_.size());
  DBS_CHECK(t >= 0.0);
  const double cycle = cycle_[channel_[item]];
  DBS_CHECK(cycle > 0.0);
  // Occurrence starts are start_[item] + m * cycle, m = 0, 1, 2, ...
  // The next start at or after t:
  const double m = std::ceil((t - start_[item]) / cycle);
  const double start = start_[item] + std::max(0.0, m) * cycle;
  return start + db_->sizes()[item] / bandwidth_;
}

}  // namespace dbs
