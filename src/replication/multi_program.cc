#include "replication/multi_program.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "common/check.h"
#include "replication/min_wait.h"

namespace dbs {

MultiProgram::MultiProgram(const Database& db, const Placement& placement,
                           double bandwidth)
    : db_(&db), bandwidth_(bandwidth) {
  DBS_CHECK(bandwidth > 0.0);
  DBS_CHECK_MSG(!placement.empty(), "need at least one channel");

  const ChannelId k = static_cast<ChannelId>(placement.size());
  cycle_.assign(k, 0.0);
  item_copies_.assign(db.size(), {});
  item_offsets_.assign(db.size(), {});

  for (ChannelId c = 0; c < k; ++c) {
    std::vector<ItemId> ids = placement[c];
    std::sort(ids.begin(), ids.end());
    DBS_CHECK_MSG(std::adjacent_find(ids.begin(), ids.end()) == ids.end(),
                  "channel " << c << " lists an item twice");
    double offset = 0.0;
    for (ItemId id : ids) {
      DBS_CHECK_MSG(id < db.size(), "unknown item " << id);
      item_copies_[id].push_back(c);
      item_offsets_[id].push_back(offset);
      offset += db.item(id).size / bandwidth_;
    }
    cycle_[c] = offset;
  }
  for (ItemId id = 0; id < db.size(); ++id) {
    DBS_CHECK_MSG(!item_copies_[id].empty(),
                  "item " << id << " is not placed on any channel");
  }
}

double MultiProgram::cycle_time(ChannelId c) const {
  DBS_CHECK(c < cycle_.size());
  return cycle_[c];
}

const std::vector<ChannelId>& MultiProgram::copies(ItemId item) const {
  DBS_CHECK(item < item_copies_.size());
  return item_copies_[item];
}

double MultiProgram::delivery_time(ItemId item, double t) const {
  DBS_CHECK(item < item_copies_.size());
  DBS_CHECK(t >= 0.0);
  const double duration = db_->item(item).size / bandwidth_;
  double best = 0.0;
  bool have = false;
  for (std::size_t i = 0; i < item_copies_[item].size(); ++i) {
    const double cycle = cycle_[item_copies_[item][i]];
    const double offset = item_offsets_[item][i];
    const double m = std::ceil((t - offset) / cycle);
    const double start = offset + std::max(0.0, m) * cycle;
    const double done = start + duration;
    if (!have || done < best) {
      have = true;
      best = done;
    }
  }
  return best;
}

double MultiProgram::expected_item_wait(ItemId item) const {
  DBS_CHECK(item < item_copies_.size());
  std::vector<double> cycles;
  cycles.reserve(item_copies_[item].size());
  for (ChannelId c : item_copies_[item]) cycles.push_back(cycle_[c]);
  return db_->item(item).size / bandwidth_ + expected_min_uniform(std::move(cycles));
}

double MultiProgram::expected_wait() const {
  double total = 0.0;
  for (ItemId id = 0; id < db_->size(); ++id) {
    total += db_->item(id).freq * expected_item_wait(id);
  }
  return total;
}

Summary MultiProgram::replay(const std::vector<Request>& trace) const {
  std::vector<double> waits;
  waits.reserve(trace.size());
  for (const Request& r : trace) {
    waits.push_back(delivery_time(r.item, r.time) - r.time);
  }
  return summarize(waits);
}

}  // namespace dbs
