#include "sim/program.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace dbs {

BroadcastProgram::BroadcastProgram(const Allocation& alloc, double bandwidth,
                                   SlotOrdering ordering)
    : bandwidth_(bandwidth) {
  DBS_CHECK(bandwidth > 0.0);
  const Database& db = alloc.database();
  schedules_.resize(alloc.channels());
  item_channel_.assign(db.size(), 0);
  item_slot_index_.assign(db.size(), 0);

  std::vector<std::vector<ItemId>> members = alloc.members();
  for (ChannelId c = 0; c < alloc.channels(); ++c) {
    std::vector<ItemId>& ids = members[c];
    switch (ordering) {
      case SlotOrdering::kById:
        break;  // members() lists ascending ids already
      case SlotOrdering::kByFreqDesc:
        std::stable_sort(ids.begin(), ids.end(), [&db](ItemId a, ItemId b) {
          return db.item(a).freq > db.item(b).freq;
        });
        break;
      case SlotOrdering::kByBenefitRatioDesc:
        std::stable_sort(ids.begin(), ids.end(), [&db](ItemId a, ItemId b) {
          return db.item(a).benefit_ratio() > db.item(b).benefit_ratio();
        });
        break;
    }
    ChannelSchedule& sched = schedules_[c];
    sched.slots.reserve(ids.size());
    double offset = 0.0;
    for (ItemId id : ids) {
      const double duration = db.sizes()[id] / bandwidth_;
      item_channel_[id] = c;
      item_slot_index_[id] = sched.slots.size();
      sched.slots.push_back(Slot{id, offset, duration});
      offset += duration;
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
