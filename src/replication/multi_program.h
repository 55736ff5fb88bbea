// Broadcast programs with data replication: an item may be carried by
// several channels simultaneously (the replication environment of the
// paper's reference [8], Huang & Chen SAC'03). Clients tune to whichever
// copy completes first.
#pragma once

#include <cstddef>
#include <vector>

#include "common/stats.h"
#include "model/database.h"
#include "workload/trace.h"

namespace dbs {

/// Channel membership with replication: placement[c] lists the items carried
/// by channel c. Every item must appear on at least one channel; items may
/// appear on several, and each extra copy lengthens that channel's cycle.
/// A plain partition's placement is Allocation::members().
using Placement = std::vector<std::vector<ItemId>>;

/// A physical multi-channel program with possibly replicated items.
class MultiProgram {
 public:
  /// Builds per-channel cyclic schedules (ascending item id within a
  /// channel). Requires bandwidth > 0, every channel list free of
  /// duplicates, and every item placed at least once.
  MultiProgram(const Database& db, const Placement& placement, double bandwidth);

  ChannelId channels() const { return static_cast<ChannelId>(cycle_.size()); }
  double bandwidth() const { return bandwidth_; }

  /// Broadcast cycle time of channel c (= aggregate size incl. copies / b).
  double cycle_time(ChannelId c) const;

  /// Channels carrying `item`.
  const std::vector<ChannelId>& copies(ItemId item) const;

  /// Completion time of the earliest copy a client tuning in at `t` can
  /// receive (same mid-transmission rule as BroadcastProgram, per channel).
  double delivery_time(ItemId item, double t) const;

  /// Analytic expected waiting time of `item` over a uniformly random
  /// tune-in: z/b + E[min over copies of time-to-next-start].
  double expected_item_wait(ItemId item) const;

  /// Analytic program waiting time: Σ_x f_x · expected_item_wait(x). With no
  /// replication this reduces exactly to Eq. (2).
  double expected_wait() const;

  /// Closed-form trace replay (the broadcast side is deterministic, so this
  /// equals a discrete-event run). Returns the distribution of waits.
  Summary replay(const std::vector<Request>& trace) const;

 private:
  const Database* db_;
  double bandwidth_;
  std::vector<double> cycle_;                      // per channel
  std::vector<std::vector<ChannelId>> item_copies_; // per item
  // Per (item, copy): the transmission start offset within the channel cycle.
  std::vector<std::vector<double>> item_offsets_;
};

}  // namespace dbs
