// Greedy replication on top of a partition-based allocation: repeatedly add
// the single (item, channel) copy that most reduces the analytic expected
// waiting time, until no copy helps or the copy budget is exhausted.
//
// Adding a copy has two opposing effects the evaluator accounts for exactly:
// the replicated item's probe time drops (minimum over more channels), while
// every item sharing the target channel waits longer (its cycle grows).
#pragma once

#include <cstddef>

#include "model/allocation.h"
#include "replication/multi_program.h"

namespace dbs {

/// Replication knobs.
struct ReplicationOptions {
  std::size_t max_copies_per_item = 2;  ///< including the original placement
  std::size_t max_total_copies = 64;    ///< extra copies added overall
};

/// Result of the greedy replication pass.
struct ReplicationResult {
  Placement placement;
  double base_wait = 0.0;       ///< analytic wait of the unreplicated program
  double replicated_wait = 0.0; ///< analytic wait after replication
  std::size_t copies_added = 0;
};

/// Runs greedy replication starting from the partition `alloc`, adding the
/// best copy while it cuts the analytic wait by more than 1e-9. The analytic
/// model treats copy phases as independent uniform offsets — exact for
/// incommensurate cycle lengths and an approximation when two channels have
/// (nearly) identical cycles.
ReplicationResult replicate_greedy(const Allocation& alloc, double bandwidth,
                                   const ReplicationOptions& options = {});

}  // namespace dbs
