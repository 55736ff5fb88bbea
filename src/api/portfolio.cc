#include "api/portfolio.h"

#include <array>
#include <optional>
#include <utility>

#include "common/check.h"
#include "common/deadline.h"
#include "common/parallel.h"
#include "common/stopwatch.h"
#include "core/kk_partition.h"
#include "obs/obs.h"

namespace dbs {

std::string_view portfolio_racer_name(PortfolioRacer racer) {
  switch (racer) {
    case PortfolioRacer::kDrpCds:
      return "drp-cds";
    case PortfolioRacer::kKkCds:
      return "kk-cds";
    case PortfolioRacer::kGopt:
      return "gopt";
  }
  DBS_CHECK_MSG(false, "unregistered PortfolioRacer "
                           << static_cast<int>(racer));
  return {};  // unreachable
}

PortfolioResult plan(const Database& db, ChannelId channels, double deadline_ms,
                     const PortfolioOptions& options) {
  DBS_OBS_SPAN("api.portfolio.plan");
  DBS_CHECK_MSG(db.size() > 0, "plan() needs a non-empty catalogue");
  DBS_CHECK_MSG(channels >= 1, "plan() needs at least one channel");
  DBS_CHECK_MSG(channels <= db.size(), "cannot fill more channels than items");
  DBS_CHECK_MSG(deadline_ms > 0.0, "plan() needs a positive deadline");

  Stopwatch watch;
  const Deadline deadline = Deadline::after_ms(deadline_ms);

  // One slot per racer; each racer writes only its own slot, so the race
  // needs no synchronization beyond the pool's join.
  struct Slot {
    std::optional<Allocation> allocation;
    double cost = 0.0;
    double elapsed_ms = 0.0;
    bool completed = true;
  };
  constexpr std::size_t kRacers = 3;
  std::array<Slot, kRacers> slots;

  // Both CDS racers refine under the same move cap and the race's deadline.
  const DrpCdsOptions drp_cds{
      .drp = {},
      .cds = {.max_iterations = options.cds_max_iterations, .deadline = deadline}};

  const auto run_racer = [&](std::size_t index) {
    Stopwatch racer_watch;
    Slot& slot = slots[index];
    switch (static_cast<PortfolioRacer>(index)) {
      case PortfolioRacer::kDrpCds: {
        DrpCdsResult result = run_drp_cds(db, channels, drp_cds);
        slot.completed = result.cds.converged;
        slot.allocation.emplace(std::move(result.allocation));
        break;
      }
      case PortfolioRacer::kKkCds: {
        slot.allocation.emplace(kk_seed_allocation(db, channels));
        slot.completed = run_cds(*slot.allocation, drp_cds.cds).converged;
        break;
      }
      case PortfolioRacer::kGopt: {
        GoptOptions opts = options.gopt;
        opts.deadline = deadline;
        GoptResult result = run_gopt(db, channels, opts);
        slot.completed = result.completed;
        slot.allocation.emplace(std::move(result.allocation));
        break;
      }
    }
    slot.cost = slot.allocation->cost();
    slot.elapsed_ms = racer_watch.millis();
  };

  run_tasks(kRacers, kRacers, run_racer);

  // Deterministic winner selection: strict cost argmin, ties to the lowest
  // racer index. Finish order plays no part, so the choice depends only on
  // the racers' (seeded) outputs.
  std::size_t winner = 0;
  for (std::size_t i = 1; i < kRacers; ++i) {
    if (slots[i].cost < slots[winner].cost) winner = i;
  }

  PortfolioResult result{std::move(*slots[winner].allocation),
                         slots[winner].cost,
                         static_cast<PortfolioRacer>(winner),
                         {},
                         0.0};
  result.racers.reserve(kRacers);
  for (std::size_t i = 0; i < kRacers; ++i) {
    result.racers.push_back(RacerOutcome{static_cast<PortfolioRacer>(i),
                                         slots[i].cost, slots[i].elapsed_ms,
                                         slots[i].completed});
  }
  result.elapsed_ms = watch.millis();

  DBS_OBS_COUNTER_INC("api.portfolio.runs");
  switch (result.winner) {
    case PortfolioRacer::kDrpCds:
      DBS_OBS_COUNTER_INC("api.portfolio.wins.drp_cds");
      break;
    case PortfolioRacer::kKkCds:
      DBS_OBS_COUNTER_INC("api.portfolio.wins.kk_cds");
      break;
    case PortfolioRacer::kGopt:
      DBS_OBS_COUNTER_INC("api.portfolio.wins.gopt");
      break;
  }
  DBS_OBS_HISTOGRAM_OBSERVE("api.portfolio.plan_ms", result.elapsed_ms);
  return result;
}

}  // namespace dbs
