// Channel-count planning under a fixed total bandwidth budget.
//
// The paper varies K with a *fixed per-channel* bandwidth, so more channels
// are a free win. A deployment usually owns a fixed total bandwidth B that K
// channels split evenly (b = B/K): more channels shorten each cycle's
// content but slow every transfer, so an interior optimum K* appears. This
// planner sweeps K and returns the best program.
#pragma once

#include <cstddef>
#include <vector>

#include "api/scheduler.h"
#include "model/database.h"

namespace dbs {

/// One row of the planner's sweep.
struct PlanPoint {
  ChannelId channels = 0;
  double per_channel_bandwidth = 0.0;
  double waiting_time = 0.0;
};

/// Planner outcome: the winning schedule plus the full sweep for inspection.
struct PlanResult {
  ScheduleResult best;
  ChannelId best_channels = 0;
  std::vector<PlanPoint> sweep;
};

/// \brief Evaluates K = 1..max_channels (capped at N), scheduling with
/// DRP-CDS at per-channel bandwidth total_bandwidth/K, and returns the K
/// minimizing W_b.
/// `db` must be a validated non-empty catalogue (DBS_CHECKed, matching
/// schedule()); requires total_bandwidth > 0 and max_channels ≥ 1. On equal
/// waiting times the smallest K wins deterministically (the comparison is
/// strict, so later K never displaces an equal earlier one). The returned
/// sweep holds one PlanPoint per evaluated K so callers can plot the full
/// trade-off curve.
PlanResult plan_channel_count(const Database& db, double total_bandwidth,
                              ChannelId max_channels);

}  // namespace dbs
