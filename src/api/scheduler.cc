#include "api/scheduler.h"

#include <stdexcept>

#include "api/portfolio.h"
#include "baselines/annealing.h"
#include "baselines/brute_force.h"
#include "baselines/flat.h"
#include "baselines/greedy.h"
#include "baselines/ordered_dp.h"
#include "baselines/vfk.h"
#include "common/check.h"
#include "common/stopwatch.h"
#include "core/multilevel.h"
#include "model/cost.h"

namespace dbs {

const std::vector<AlgorithmInfo>& all_algorithms() {
  static const std::vector<AlgorithmInfo> kRegistry = {
      {Algorithm::kFlat, "flat", "round-robin flat program", false},
      {Algorithm::kFlatBalanced, "flat-balanced", "size-balanced flat program", false},
      {Algorithm::kGreedy, "greedy", "best-channel insertion in br order", false},
      {Algorithm::kVfk, "vfk", "conventional frequency-only VF^K", false},
      {Algorithm::kDrp, "drp", "dimension reduction partitioning", false},
      {Algorithm::kDrpCds, "drp-cds", "DRP refined by cost-diminishing selection",
       false},
      {Algorithm::kMultilevel, "multilevel",
       "DRP-CDS on benefit-order pairs, refined level by level", false},
      {Algorithm::kOrderedDp, "ordered-dp",
       "optimal contiguous partition of the br order", false},
      {Algorithm::kGopt, "gopt", "genetic near-global optimum", false},
      {Algorithm::kAnneal, "anneal", "simulated annealing over Eq. (4) moves", false},
      {Algorithm::kBruteForce, "brute-force", "exact optimum (small N only)", true},
      {Algorithm::kPortfolio, "portfolio",
       "deadline-budgeted race: DRP-CDS | KK-CDS | GOPT", false},
  };
  return kRegistry;
}

std::optional<Algorithm> algorithm_from_name(std::string_view name) {
  for (const AlgorithmInfo& info : all_algorithms()) {
    if (info.name == name) return info.id;
  }
  return std::nullopt;
}

std::string_view algorithm_name(Algorithm algorithm) {
  for (const AlgorithmInfo& info : all_algorithms()) {
    if (info.id == algorithm) return info.name;
  }
  // Failing loudly is the point: a silent "unknown" is how an enumerator
  // ships without a registry entry (and thus without CLI/CSV discovery).
  DBS_CHECK_MSG(false, "Algorithm enumerator " << static_cast<int>(algorithm)
                                               << " missing from all_algorithms()");
  return {};  // unreachable
}

ScheduleResult schedule(const Database& db, const ScheduleRequest& request) {
  DBS_CHECK_MSG(request.channels >= 1, "schedule() needs at least one channel");
  DBS_CHECK_MSG(request.bandwidth > 0.0, "schedule() needs positive bandwidth");
  DBS_CHECK_MSG(db.size() > 0, "schedule() needs a non-empty catalogue");
  DBS_CHECK_MSG(request.channels <= db.size(),
                "schedule() needs K <= N, got K=" << request.channels
                                                  << " for N=" << db.size());
  Stopwatch watch;
  std::optional<Allocation> alloc;

  switch (request.algorithm) {
    case Algorithm::kFlat:
      alloc = flat_round_robin(db, request.channels);
      break;
    case Algorithm::kFlatBalanced:
      alloc = flat_size_balanced(db, request.channels);
      break;
    case Algorithm::kGreedy:
      alloc = greedy_insertion(db, request.channels);
      break;
    case Algorithm::kVfk:
      alloc = run_vfk(db, request.channels);
      break;
    case Algorithm::kDrp:
      alloc = run_drp(db, request.channels, request.drp_cds.drp).allocation;
      break;
    case Algorithm::kDrpCds:
      alloc = run_drp_cds(db, request.channels, request.drp_cds).allocation;
      break;
    case Algorithm::kMultilevel:
      alloc = run_multilevel(db, request.channels).allocation;
      break;
    case Algorithm::kOrderedDp:
      alloc = ordered_dp_optimal(db, request.channels);
      break;
    case Algorithm::kGopt:
      alloc = run_gopt(db, request.channels, request.gopt).allocation;
      break;
    case Algorithm::kAnneal:
      alloc = run_annealing(db, request.channels).allocation;
      break;
    case Algorithm::kBruteForce: {
      auto exact = brute_force_optimal(db, request.channels);
      if (!exact.has_value()) {
        throw std::runtime_error("brute-force search exceeded its node budget");
      }
      alloc = std::move(exact->allocation);
      break;
    }
    case Algorithm::kPortfolio:
      alloc = plan(db, request.channels, request.portfolio_deadline_ms,
                   {.cds_max_iterations = request.drp_cds.cds.max_iterations,
                    .gopt = request.gopt})
                  .allocation;
      break;
  }

  ScheduleResult result{std::move(*alloc), 0.0, 0.0, 0.0};
  result.cost = result.allocation.cost();
  result.waiting_time = program_waiting_time(result.allocation, request.bandwidth);
  // Convention (docs/BENCHMARKING.md): elapsed_ms covers the whole call —
  // algorithm plus metric evaluation — so it matches what any external
  // stopwatch around schedule() measures.
  result.elapsed_ms = watch.millis();
  return result;
}

}  // namespace dbs
