// Multilevel DRP-CDS: coarsen the catalogue along its benefit order, plan the
// coarsest level with the paper's two-step scheme, then refine on the way
// back down — the V-cycle of METIS's multilevel partitioning (Karypis &
// Kumar, SIAM J. Sci. Comput. 20(1), 1998).
//
// Coarsening pairs consecutive items of benefit_order() into super-items
// whose f and z are the pair's sums; an odd tail stays single. Eq. 3 sees
// only channel aggregates, so moving a super-item changes the cost exactly as
// moving its pair does, and Eq. 4 holds with the summed f and z: every coarse
// level is an exact, half-size instance of the same problem. Coarsening stops
// once at most 2K items remain. DRP + CDS plan that level; every level below
// inherits its pair's channel and runs CDS to convergence, so the result is a
// single-move local optimum, like run_drp_cds's. Level 0 starts that close to
// one, so it needs several times fewer moves than CDS from DRP's split.
//
// The hierarchy is implied by ranks: coarse item j is ranks 2j and 2j + 1 of
// the finer level, so the finer item at rank i inherits coarse item i / 2's
// channel, and the levels are plain Databases with no parent map.
#pragma once

#include <cstddef>

#include "core/cds.h"
#include "model/allocation.h"
#include "model/database.h"

namespace dbs {

/// Outcome of a multilevel run.
struct MultilevelResult {
  Allocation allocation;          ///< bound to the caller's database
  double final_cost = 0.0;        ///< allocation.cost()
  std::size_t levels = 1;         ///< levels planned, level 0 included
  CdsStats cds;                   ///< level 0's refinement
};

/// \brief Plans `db` on `channels` channels with the multilevel V-cycle
/// described above. Requires 1 ≤ K ≤ N. With N ≤ 2K nothing is coarsened
/// and the allocation is exactly run_drp_cds(db, channels)'s. Deterministic.
MultilevelResult run_multilevel(const Database& db, ChannelId channels);

}  // namespace dbs
