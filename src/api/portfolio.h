// Budgeted optimizer portfolio (DESIGN.md §13): the "best answer by a
// deadline" entry point, reachable directly and as Algorithm::kPortfolio.
// The online service (src/serve) does not use it; its rebuild is plain
// DRP-CDS.
//
// plan() races three complementary planners on the shared worker pool
// (common/parallel.h):
//   * DRP+CDS — the paper's two-step scheme, the quality workhorse;
//   * KK+CDS  — a Karmarkar–Karp differencing seed over the √(f·z) column
//               (core/kk_partition.h) repaired by CDS, strong exactly where
//               DRP's benefit-ratio ordering is weak;
//   * GOPT    — the memetic GA, given whatever budget remains after the
//               cheap racers typically finish early.
// All racers share one cooperative Deadline (common/deadline.h), polled per
// CDS iteration and per GOPT generation, so the race returns within the
// deadline plus at most one such granule. The winner is the strict cost
// argmin with ties resolved to the lowest racer index — never to whichever
// thread happened to finish first — so results are deterministic under
// fixed seeds regardless of scheduling.
#pragma once

#include <cstddef>
#include <limits>
#include <string_view>
#include <vector>

#include "baselines/gopt.h"
#include "core/drp_cds.h"
#include "model/allocation.h"
#include "model/database.h"

namespace dbs {

/// The portfolio's racers, in tie-break priority order: on equal costs the
/// lowest enumerator wins, so the cheap deterministic heuristics outrank
/// the GA.
enum class PortfolioRacer {
  kDrpCds,  ///< paper's two-step scheme (core/drp_cds.h)
  kKkCds,   ///< KK differencing seed + CDS repair (core/kk_partition.h)
  kGopt,    ///< deadline-capped memetic GA (baselines/gopt.h)
};

/// \brief Stable display name of a racer ("drp-cds", "kk-cds", "gopt").
/// The returned view points at a string literal and never dangles.
std::string_view portfolio_racer_name(PortfolioRacer racer);

/// Portfolio tuning knobs. The deadline itself is a plan() argument — it is
/// the contract of the call, not a tunable. The race runs one worker thread
/// per racer.
struct PortfolioOptions {
  /// CDS move cap shared by the DRP+CDS racer and the KK seed's repair
  /// (CdsOptions::max_iterations; the default is unbounded).
  std::size_t cds_max_iterations = std::numeric_limits<std::size_t>::max();
  GoptOptions gopt;       ///< GA racer (its deadline is overwritten)
};

/// Telemetry for one racer's run within the race.
struct RacerOutcome {
  PortfolioRacer racer = PortfolioRacer::kDrpCds;
  double cost = 0.0;        ///< Eq. 3 cost of this racer's allocation
  double elapsed_ms = 0.0;  ///< wall time of this racer (not the whole race)
  /// False iff the deadline cut this racer short (its allocation is still
  /// valid — just not refined to its natural stopping point).
  bool completed = true;
};

/// Portfolio outcome: the winning allocation plus race telemetry.
struct PortfolioResult {
  Allocation allocation;           ///< the winner's allocation, bound to db
  double cost = 0.0;               ///< allocation.cost()
  PortfolioRacer winner = PortfolioRacer::kDrpCds;
  std::vector<RacerOutcome> racers;  ///< per-racer telemetry, in racer order
  double elapsed_ms = 0.0;         ///< wall time of the whole race
};

/// \brief Races DRP+CDS, KK+CDS and deadline-capped GOPT for `deadline_ms`
/// milliseconds and returns the cheapest allocation found.
///
/// `db` must be a validated non-empty catalogue; requires 1 ≤ channels ≤ N
/// and deadline_ms > 0. Every racer runs to its own completion or to the
/// shared deadline, whichever comes first, so the call returns within
/// deadline_ms plus one cancellation-check granule (one CDS iteration or
/// GOPT generation). Deterministic under fixed seeds: the winner is the
/// cost argmin with ties to the lowest racer index, independent of thread
/// scheduling; with a deadline generous enough for every racer to finish,
/// the full result is bit-identical across runs and thread counts. Throws
/// ContractViolation on invalid input.
PortfolioResult plan(const Database& db, ChannelId channels, double deadline_ms,
                     const PortfolioOptions& options = {});

}  // namespace dbs
