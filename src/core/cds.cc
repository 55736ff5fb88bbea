#include "core/cds.h"

#include "core/candidate_index.h"
#include "obs/obs.h"

namespace dbs {

CdsMove best_move(const Allocation& alloc) {
  CdsMove best;
  best.gain = 0.0;
  bool have = false;
  const std::size_t n = alloc.items();
  const ChannelId k = alloc.channels();
  for (ItemId x = 0; x < n; ++x) {
    const ChannelId p = alloc.channel_of(x);
    for (ChannelId q = 0; q < k; ++q) {
      if (q == p) continue;
      const double gain = alloc.move_gain(x, q);
      if (!have || gain > best.gain) {
        have = true;
        best = CdsMove{x, p, q, gain};
      }
    }
  }
  return best;
}

CdsStats run_cds(Allocation& alloc, const CdsOptions& options) {
  DBS_OBS_SPAN("core.cds.run");
  CdsStats stats;
  stats.initial_cost = alloc.cost();
  // With one channel there is no move to make: trivially a local optimum.
  if (alloc.channels() > 1) {
    // Each iteration folds the previous move into the index (only the gains
    // its two channels made stale), then selects the best move from the
    // block maxima.
    CandidateIndex index = [&] {
      DBS_OBS_SPAN("core.cds.index_build");
      return CandidateIndex(alloc);
    }();
    while (true) {
      if (stats.iterations >= options.max_iterations) {
        // Budget exhausted: one more index pass tells whether the run
        // happens to sit at a local optimum anyway.
        stats.converged = index.best_move().gain <= kCdsMinGain;
        break;
      }
      if (options.deadline.expired()) {
        // Cooperative cancellation: stop where we stand, and skip the
        // convergence probe — it costs an index pass the budget no longer
        // covers.
        stats.converged = false;
        break;
      }
      const CdsMove move = index.best_move();
      if (move.gain <= kCdsMinGain) break;  // local optimum (line 18 of CDS)
      index.apply(move);
      ++stats.iterations;
    }
    stats.moves_evaluated = index.moves_evaluated();
    stats.index_repairs = index.repairs();
    stats.span_ranks = index.span_ranks();
  }
  stats.final_cost = alloc.cost();
  DBS_OBS_COUNTER_INC("core.cds.runs");
  DBS_OBS_COUNTER_ADD("core.cds.iterations", stats.iterations);
  DBS_OBS_COUNTER_ADD("core.cds.moves_evaluated", stats.moves_evaluated);
  DBS_OBS_COUNTER_ADD("core.cds.index_repairs", stats.index_repairs);
  DBS_OBS_COUNTER_ADD("core.cds.span_ranks", stats.span_ranks);
  DBS_OBS_HISTOGRAM_OBSERVE("core.cds.iterations_per_run", stats.iterations);
  return stats;
}

}  // namespace dbs
