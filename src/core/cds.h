// Mechanism CDS — Cost-Diminishing Selection (paper §3.2).
//
// Local-search refinement over an existing allocation. Each iteration
// evaluates every single-item move d_x : D_p → D_q with the closed-form
// reduction of Eq. (4),
//     Δc = f_x (Z_p − Z_q) + z_x (F_p − F_q) − 2 f_x z_x,
// applies the best strictly-improving move, and stops when no move improves —
// a local optimum of the cost function under the single-move neighbourhood.
//
// run_cds finds each iteration's best move with the candidate index
// (core/candidate_index.h): Eq. 4 factors into a home potential minus a
// target load, so each item's best target is its minimum-load channel. That
// channel depends only on the item's benefit ratio, so the index keeps it as
// a piece map over the benefit order, refreshes only the gains a move made
// stale, and selects from per-block gain maxima instead of an O(N·K)
// rescan. best_move(alloc) below is the
// exhaustive O(N·K) reference the index is tested against: both evaluate
// Eq. 4 with the same arithmetic and tie-break order (ARCHITECTURE.md §5).
#pragma once

#include <cstddef>
#include <limits>

#include "common/deadline.h"
#include "model/allocation.h"

namespace dbs {

/// A move must reduce cost by more than this to be applied. Zero matches
/// the paper's Δc > 0; the tiny margin avoids cycling on rounding noise.
inline constexpr double kCdsMinGain = 1e-12;

/// CDS tuning knobs; defaults reproduce the paper.
struct CdsOptions {
  /// Safety bound on iterations (each iteration applies one move). The cost
  /// strictly decreases every iteration, so termination is guaranteed anyway;
  /// this guards against pathological floating-point drift.
  std::size_t max_iterations = std::numeric_limits<std::size_t>::max();

  /// Cooperative cancellation (DESIGN.md §13): polled once per applied-move
  /// iteration. When it fires the run stops where it stands, like an
  /// exhausted max_iterations but without the final convergence probe
  /// (converged = false). The never() default costs one branch per
  /// iteration, not a clock read.
  Deadline deadline = Deadline::never();
};

/// Outcome of a CDS run.
struct CdsStats {
  std::size_t iterations = 0;  ///< number of applied moves
  double initial_cost = 0.0;
  double final_cost = 0.0;
  bool converged = true;  ///< false iff max_iterations or the deadline
                          ///< stopped the search before a local optimum

  /// Candidate moves whose Δc was computed: one per item whose best target
  /// is not its home, once when the index is built and again whenever a
  /// fold refreshes the item's gain. An exhaustive search would pay
  /// N·(K−1) per iteration, so equal `iterations` can hide very different
  /// costs.
  std::size_t moves_evaluated = 0;

  /// Benefit-order positions whose best target the index re-derived during
  /// its folds: those whose piece channel changed or is one of the move's
  /// two channels (0 when no move was applied).
  std::size_t index_repairs = 0;

  /// Ranks of the touched channels' spans the index read to find their
  /// members: each fold's walk outside the stale positions, plus the ranks
  /// a move's source span sheds (0 when no move was applied).
  std::size_t span_ranks = 0;
};

/// A candidate move with its predicted gain.
struct CdsMove {
  ItemId item = 0;
  ChannelId from = 0;
  ChannelId to = 0;
  double gain = 0.0;
};

/// \brief Scans all moves and returns the best one (gain may be ≤ 0 if the
/// allocation is already locally optimal). Deterministic: ties resolve to the
/// smallest (item, to) pair. O(N·K) brute force — the reference that
/// run_cds's candidate index must match move for move.
CdsMove best_move(const Allocation& alloc);

/// \brief Refines `alloc` in place until a local optimum (or the iteration
/// bound, or the deadline) is reached. Returns per-run statistics.
CdsStats run_cds(Allocation& alloc, const CdsOptions& options = {});

}  // namespace dbs
