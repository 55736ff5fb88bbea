// Simulated-annealing baseline: a second metaheuristic reference point
// besides GOPT. Starts from greedy insertion and anneals over single-item
// moves using the O(1) reduction of Eq. (4), accepting uphill moves with the
// Metropolis rule under a geometric cooling schedule, and remembers the best
// allocation visited. The schedule is fixed: the temperature starts at 5% of
// the greedy start's cost and cools by a factor 0.9999 per step, and the
// proposals come from one fixed seed, so a run depends only on its inputs.
#pragma once

#include <cstddef>

#include "model/allocation.h"
#include "model/database.h"

namespace dbs {

/// Annealer knobs. The defaults anneal long enough to be competitive with
/// DRP-CDS on the paper's workload sizes while staying well under GOPT cost.
struct AnnealOptions {
  std::size_t steps = 200'000;     ///< proposed moves
};

/// Annealing outcome.
struct AnnealResult {
  Allocation allocation;  ///< best allocation visited
  double cost = 0.0;
  std::size_t accepted = 0;  ///< accepted proposals (incl. uphill)
};

/// Runs simulated annealing. Requires 1 ≤ K ≤ N.
AnnealResult run_annealing(const Database& db, ChannelId channels,
                           const AnnealOptions& options = {});

}  // namespace dbs
