#include "core/drp_cds.h"

namespace dbs {

DrpCdsResult run_drp_cds(const Database& db, ChannelId channels,
                         const DrpCdsOptions& options) {
  // dbs-lint: contract delegated to run_drp (validates channels and catalogue)
  // DRP reads the Database's benefit order in place and frees its prefix
  // sums on return, so CDS builds its index with nothing of DRP's alive but
  // the allocation.
  DrpCdsResult result{run_drp(db, channels, options.drp).allocation, 0.0, 0.0, {}};
  result.drp_cost = result.allocation.cost();
  result.cds = run_cds(result.allocation, options.cds);
  result.final_cost = result.allocation.cost();
  return result;
}

}  // namespace dbs
