// High-level facade: pick an algorithm by name or id, run it, and collect
// cost / waiting-time / runtime in one record. This is the entry point the
// examples and the figure-reproduction benches use.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "baselines/gopt.h"
#include "core/drp_cds.h"
#include "model/allocation.h"
#include "model/database.h"

namespace dbs {

/// Every channel-allocation algorithm the library ships.
enum class Algorithm {
  kFlat,          ///< round-robin, ignores f and z
  kFlatBalanced,  ///< size-balanced flat program
  kGreedy,        ///< best-channel insertion in br order
  kVfk,           ///< conventional frequency-only VF^K (paper baseline)
  kDrp,           ///< paper's rough allocation
  kDrpCds,        ///< paper's full two-step scheme
  kMultilevel,    ///< DRP-CDS as a multilevel V-cycle (core/multilevel.h)
  kOrderedDp,     ///< optimal contiguous partition of the br order
  kGopt,          ///< genetic near-global-optimum (paper baseline)
  kAnneal,        ///< simulated-annealing metaheuristic
  kBruteForce,    ///< exact optimum, small N only
  kPortfolio,     ///< budgeted race: DRP-CDS | KK-CDS | GOPT (api/portfolio.h)
};

/// Metadata for algorithm discovery (used by examples to enumerate).
struct AlgorithmInfo {
  Algorithm id;
  std::string_view name;      ///< stable CLI/CSV name, e.g. "drp-cds"
  std::string_view summary;   ///< one-line description
  bool exponential = false;   ///< true for BruteForce
};

/// \brief All registered algorithms in presentation order.
/// The returned registry is a process-lifetime constant; iterate it to
/// enumerate every algorithm with its stable name and summary.
const std::vector<AlgorithmInfo>& all_algorithms();

/// \brief Name → algorithm lookup ("drp-cds", "vfk", ...).
/// `name` must be one of the stable CLI/CSV names from all_algorithms();
/// returns std::nullopt when the name is unknown.
std::optional<Algorithm> algorithm_from_name(std::string_view name);

/// \brief Algorithm → stable name.
/// Every Algorithm enumerator is registered, so this throws
/// ContractViolation for an enum value missing from all_algorithms() — a
/// silent "unknown" once let unregistered algorithms ship unnoticed. The
/// returned view points at the static registry and never dangles.
std::string_view algorithm_name(Algorithm algorithm);

/// Request: which algorithm, how many channels, and tuning knobs for the
/// algorithms that have them.
struct ScheduleRequest {
  Algorithm algorithm = Algorithm::kDrpCds;
  ChannelId channels = 4;
  double bandwidth = 10.0;  ///< for the reported waiting time (paper Table 5)
  /// Used by kDrp / kDrpCds; kPortfolio's CDS racers take its CDS move cap.
  DrpCdsOptions drp_cds;
  GoptOptions gopt;  ///< used by kGopt and by kPortfolio's GA racer
  /// Race budget for kPortfolio, in milliseconds (see api/portfolio.h).
  double portfolio_deadline_ms = 250.0;
};

/// Result: the allocation plus the headline metrics.
struct ScheduleResult {
  Allocation allocation;
  double cost = 0.0;          ///< Σ F_i·Z_i (Eq. 3)
  double waiting_time = 0.0;  ///< W_b (Eq. 2) at the requested bandwidth
  /// Wall-clock time of the whole schedule() call: the algorithm *plus* the
  /// cost / waiting-time evaluation above. This is the same span an
  /// external stopwatch around schedule() sees, so harness brackets and
  /// this field agree by construction (convention documented in
  /// docs/BENCHMARKING.md; before PR 9 evaluation was excluded).
  double elapsed_ms = 0.0;
};

/// \brief Runs the requested algorithm on `db` and returns the allocation
/// with its headline metrics.
/// `db` must be a validated non-empty catalogue; `request` selects the
/// algorithm, channel count (1 ≤ K ≤ N), bandwidth (> 0) and per-algorithm
/// tuning knobs. Throws ContractViolation on invalid input (e.g. K > N) and
/// std::runtime_error if BruteForce exceeds its node budget. Stateless and
/// safe to call from several threads on the same `db` concurrently.
ScheduleResult schedule(const Database& db, const ScheduleRequest& request);

}  // namespace dbs
