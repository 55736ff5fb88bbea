// The paper's two-step allocation scheme: DRP provides the rough allocation,
// CDS refines it to a local optimum (paper §1, "two-step allocation scheme").
#pragma once

#include "core/cds.h"
#include "core/drp.h"
#include "model/allocation.h"
#include "model/database.h"

namespace dbs {

/// Options for the combined pipeline. Cooperative cancellation (DESIGN.md
/// §13) rides in `cds.deadline`: DRP itself is a single O(N·K) pass that
/// always runs to completion, and the refinement loop polls the deadline
/// once per applied move, so a budgeted DRP-CDS overshoots by at most one
/// CDS iteration.
struct DrpCdsOptions {
  DrpOptions drp;
  CdsOptions cds;
};

/// Combined run record: costs after each stage plus CDS statistics.
struct DrpCdsResult {
  Allocation allocation;
  double drp_cost = 0.0;   ///< cost after the rough allocation
  double final_cost = 0.0; ///< cost after refinement
  CdsStats cds;            ///< the refinement's statistics
};

/// \brief Runs DRP followed by CDS. Requires 1 ≤ K ≤ N.
DrpCdsResult run_drp_cds(const Database& db, ChannelId channels,
                         const DrpCdsOptions& options = {});

/// Outcome of repairing a carried-over assignment against a database.
struct RepairResult {
  Allocation allocation;
  double initial_cost = 0.0;  ///< cost of the seed assignment on `db`
  double final_cost = 0.0;    ///< cost after the CDS repair
  CdsStats cds;
};

/// \brief Binds an existing assignment to `db` and runs CDS moves from there
/// instead of from DRP's split — the portfolio's KK-CDS racer refines its
/// seed this way. Same local-search guarantees as run_cds; the work is a
/// handful of moves when the seed is already near a local optimum.
/// Requires assignment.size() == db.size() and every entry < channels.
RepairResult repair_assignment(const Database& db, ChannelId channels,
                               std::vector<ChannelId> assignment,
                               const CdsOptions& options = {});

}  // namespace dbs
