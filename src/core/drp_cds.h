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

}  // namespace dbs
