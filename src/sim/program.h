// The physical broadcast program: per-channel cyclic transmission schedules
// derived from a channel allocation. This is what the server actually sends
// on air; the simulator replays it against client request traces.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "model/allocation.h"
#include "model/database.h"

namespace dbs {

/// One transmission slot within a channel cycle.
struct Slot {
  ItemId item = 0;
  double start = 0.0;     ///< offset of transmission start within the cycle
  double duration = 0.0;  ///< z / b
};

/// Per-channel cyclic schedule.
struct ChannelSchedule {
  std::vector<Slot> slots;   ///< in transmission order: ascending item id
  double cycle_time = 0.0;   ///< Σ durations = Z_i / b
};

/// A complete broadcast program over K channels of equal bandwidth b. Each
/// channel transmits its items by ascending id. The analytic waiting-time
/// model (Eq. 1/2) is order-independent — only the cycle length matters —
/// so any fixed order serves; this one needs no sort.
class BroadcastProgram {
 public:
  /// Builds the program from an allocation. Requires bandwidth > 0.
  BroadcastProgram(const Allocation& alloc, double bandwidth);

  ChannelId channels() const { return static_cast<ChannelId>(schedules_.size()); }
  double bandwidth() const { return bandwidth_; }
  const ChannelSchedule& schedule(ChannelId c) const;

  /// Channel carrying `item`.
  ChannelId channel_of(ItemId item) const;

  /// The time at which a client tuning in at `t` finishes downloading `item`:
  /// the end of the next occurrence whose *start* is ≥ t (a client that tunes
  /// in mid-transmission must wait a full extra cycle). O(log slots).
  double delivery_time(ItemId item, double t) const;

  /// Waiting time (delivery − tune-in) for a request at time t.
  double waiting_time(ItemId item, double t) const { return delivery_time(item, t) - t; }

 private:
  double bandwidth_;
  std::vector<ChannelSchedule> schedules_;
  std::vector<ChannelId> item_channel_;         // by item id
  std::vector<std::uint32_t> item_slot_index_;  // slot position within its channel
};

}  // namespace dbs
