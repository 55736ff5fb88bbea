// The analytical waiting-time model of diverse data broadcasting
// (paper §2.1, Eqs. 1 and 2) and the derived optimization cost (Eq. 3).
#pragma once

#include "model/allocation.h"
#include "model/item.h"

namespace dbs {

/// \brief Waiting time of item `id` on its assigned channel (Eq. 1):
///   W_j = Z_i / (2b) + z_j / b
/// i.e. expected probe time (half the broadcast cycle) plus download time.
double item_waiting_time(const Allocation& alloc, ItemId id, double bandwidth);

/// \brief Frequency-weighted average waiting time of channel c (the paper's
/// W^(i)), read from the allocation's F, Z and P columns in O(1).
/// Returns 0 for an empty channel (no requests ever target it).
double channel_waiting_time(const Allocation& alloc, ChannelId c, double bandwidth);

/// \brief Average waiting time of the whole broadcast program (Eq. 2):
///   W_b = (1/2b) Σ_i F_i·Z_i + (1/b) Σ_j f_j·z_j
double program_waiting_time(const Allocation& alloc, double bandwidth);

/// \brief The schedule-independent part of W_b: (1/b) Σ_j f_j z_j.
double download_component(const Database& db, double bandwidth);

/// \brief The schedule-dependent part of W_b: (1/2b) Σ_i F_i Z_i = cost/(2b).
double probe_component(const Allocation& alloc, double bandwidth);

}  // namespace dbs
