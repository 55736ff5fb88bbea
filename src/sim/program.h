// The physical broadcast program: per-channel cyclic transmission schedules
// derived from a channel allocation. This is what the server actually sends
// on air; the simulator replays it against client request traces.
#pragma once

#include <cstddef>
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

/// Per-channel cyclic schedule, materialized on demand by
/// BroadcastProgram::schedule().
struct ChannelSchedule {
  std::vector<Slot> slots;   ///< in transmission order: ascending item id
  double cycle_time = 0.0;   ///< Σ durations = Z_i / b
};

/// A complete broadcast program over K channels of equal bandwidth b. Each
/// channel transmits its items by ascending id. The analytic waiting-time
/// model (Eq. 1/2) is order-independent — only the cycle length matters —
/// so any fixed order serves; this one needs no comparison sort.
///
/// Storage is columnar, 16 B per item plus O(K): each item's channel and
/// its start offset within that channel's cycle, by id, and the ids grouped
/// by channel. A duration is z/b, read from the Database's size column, so
/// the allocation's Database must outlive the BroadcastProgram.
class BroadcastProgram {
 public:
  /// Builds the program from an allocation. Requires bandwidth > 0.
  BroadcastProgram(const Allocation& alloc, double bandwidth);

  ChannelId channels() const { return static_cast<ChannelId>(cycle_.size()); }

  /// Channel `c`'s slots, built from the columns in O(N_c) on every call:
  /// a caller that walks them repeatedly keeps its own copy.
  ChannelSchedule schedule(ChannelId c) const;

  /// Channel carrying `item`.
  ChannelId channel_of(ItemId item) const;

  /// The time at which a client tuning in at `t` finishes downloading `item`:
  /// the end of the next occurrence whose *start* is ≥ t (a client that tunes
  /// in mid-transmission must wait a full extra cycle). O(1).
  double delivery_time(ItemId item, double t) const;

  /// Waiting time (delivery − tune-in) for a request at time t.
  double waiting_time(ItemId item, double t) const { return delivery_time(item, t) - t; }

 private:
  const Database* db_;
  double bandwidth_;
  std::vector<ChannelId> channel_;         // by item id
  std::vector<double> start_;              // by item id: offset within its cycle
  std::vector<ItemId> grouped_;            // ids by channel, ascending within each
  std::vector<std::size_t> group_begin_;   // K + 1: channel c is [begin[c], begin[c+1])
  std::vector<double> cycle_;              // by channel
};

}  // namespace dbs
