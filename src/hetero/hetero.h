// Heterogeneous channel bandwidths — a natural extension of the paper's
// model, where channel c transmits at its own rate b_c (e.g. a mix of
// licensed and shared spectrum). Waiting time generalizes Eq. (2) to
//
//   W = Σ_c [ F_c·Z_c / (2 b_c)  +  (Σ_{x∈c} f_x z_x) / b_c ]
//
// and, unlike the homogeneous case, the download term now depends on the
// schedule too, so the whole expression must be optimized jointly. The move
// reduction generalizing Eq. (4) for d_x(f,z) : p → q is
//
//   Δ = [ (f·Z_p + z·F_p − f·z)/2 + f·z ] / b_p
//     − [ (f·Z_q + z·F_q + f·z)/2 + f·z ] / b_q.
#pragma once

#include <cstddef>
#include <vector>

#include "model/allocation.h"
#include "model/database.h"

namespace dbs {

/// Exact heterogeneous waiting time of an allocation under per-channel
/// bandwidths. Requires bandwidths.size() == alloc.channels(), all positive.
/// With all bandwidths equal to b this equals program_waiting_time(alloc, b).
double hetero_wait(const Allocation& alloc, const std::vector<double>& bandwidths);

/// Result of the heterogeneous scheduler.
struct HeteroResult {
  Allocation allocation;
  double wait = 0.0;        ///< heterogeneous W of the final allocation
  std::size_t moves = 0;    ///< local-search iterations applied
};

/// Two-step heterogeneous scheduler in the spirit of DRP-CDS:
///  1. rough allocation — DRP groups matched to channels by load/bandwidth
///     rank (heaviest group → fastest channel);
///  2. fine allocation — best-improvement local search on the generalized Δ
///     above, run to a local optimum.
HeteroResult schedule_hetero(const Database& db,
                             const std::vector<double>& bandwidths);

/// The generalized move reduction (positive = the move lowers W). Exposed
/// for tests; O(1) after an O(K) bandwidth check, since F, Z and P are the
/// allocation's maintained columns. schedule_hetero's search uses the same
/// formula.
double hetero_move_gain(const Allocation& alloc,
                        const std::vector<double>& bandwidths, ItemId item,
                        ChannelId to);

}  // namespace dbs
