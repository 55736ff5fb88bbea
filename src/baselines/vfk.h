// Algorithm VF^K (Peng & Chen, Wireless Networks 2003) — the conventional
// broadcasting environment's channel-allocation algorithm, used by the paper
// as the frequency-only comparison baseline.
//
// In the conventional environment every item has the same size z, so the
// schedule-dependent cost of channel i reduces to F_i · N_i · z and the
// optimal program is a contiguous partition of the frequency-descending item
// sequence minimizing Σ_i F_i · N_i. We compute that partition exactly with
// OrderedDp's dynamic program (contiguous_optimum, baselines/ordered_dp.h)
// over the frequency order with every size one, so a run's size is its item
// count (the "variant fanout" tree of the original algorithm realizes the
// same optimum), and then evaluate the resulting allocation under the true
// diverse sizes — exactly what the paper does in §4.
#pragma once

#include "model/allocation.h"
#include "model/database.h"

namespace dbs {

/// Runs VF^K: frequency-descending order, DP-optimal contiguous partition
/// under the equal-size objective Σ F_i·N_i. Requires 1 ≤ K ≤ N.
/// Complexity O(K·N²).
Allocation run_vfk(const Database& db, ChannelId channels);

}  // namespace dbs
