#include "sim/program.h"

#include <algorithm>
#include <cmath>
#include <span>

#include "common/check.h"

namespace dbs {

BroadcastProgram::BroadcastProgram(const Allocation& alloc, double bandwidth)
    : bandwidth_(bandwidth), item_channel_(alloc.assignment()) {
  DBS_CHECK(bandwidth > 0.0);
  const Database& db = alloc.database();
  const std::span<const double> sizes = db.sizes();
  schedules_.resize(alloc.channels());
  for (ChannelId c = 0; c < alloc.channels(); ++c) {
    schedules_[c].slots.reserve(alloc.channel_counts()[c]);
  }
  item_slot_index_.resize(db.size());
  // One pass in id order lists every channel by ascending id.
  for (ItemId id = 0; id < db.size(); ++id) {
    std::vector<Slot>& slots = schedules_[item_channel_[id]].slots;
    item_slot_index_[id] = static_cast<std::uint32_t>(slots.size());
    slots.push_back(Slot{id, 0.0, sizes[id] / bandwidth_});
  }

  for (ChannelSchedule& sched : schedules_) {
    double offset = 0.0;
    for (Slot& slot : sched.slots) {
      slot.start = offset;
      offset += slot.duration;
    }
    sched.cycle_time = offset;
  }
}

const ChannelSchedule& BroadcastProgram::schedule(ChannelId c) const {
  DBS_CHECK(c < schedules_.size());
  return schedules_[c];
}

ChannelId BroadcastProgram::channel_of(ItemId item) const {
  DBS_CHECK(item < item_channel_.size());
  return item_channel_[item];
}

double BroadcastProgram::delivery_time(ItemId item, double t) const {
  DBS_CHECK(item < item_channel_.size());
  DBS_CHECK(t >= 0.0);
  const ChannelSchedule& sched = schedules_[item_channel_[item]];
  const Slot& slot = sched.slots[item_slot_index_[item]];
  const double cycle = sched.cycle_time;
  DBS_CHECK(cycle > 0.0);
  // Occurrence starts are slot.start + m * cycle, m = 0, 1, 2, ...
  // The next start at or after t:
  const double m = std::ceil((t - slot.start) / cycle);
  const double start = slot.start + std::max(0.0, m) * cycle;
  return start + slot.duration;
}

}  // namespace dbs
