#include "core/multilevel.h"

#include <utility>
#include <vector>

#include "common/check.h"
#include "core/drp.h"
#include "obs/obs.h"

namespace dbs {

namespace {

/// One coarsening step: coarse item j sums ranks 2j and 2j + 1 of the finer
/// level's benefit order.
Database coarsen(const Database& fine) {
  const std::span<const double> f = fine.benefit_freqs();
  const std::span<const double> z = fine.benefit_sizes();
  const std::size_t pairs = (fine.size() + 1) / 2;
  std::vector<double> freqs(pairs, 0.0);
  std::vector<double> sizes(pairs, 0.0);
  for (std::size_t i = 0; i < fine.size(); ++i) {
    freqs[i / 2] += f[i];
    sizes[i / 2] += z[i];
  }
  return Database(std::move(sizes), std::move(freqs));
}

}  // namespace

MultilevelResult run_multilevel(const Database& db, ChannelId channels) {
  DBS_OBS_SPAN("core.ml.run");
  DBS_CHECK_MSG(channels >= 1, "need at least one channel");
  DBS_CHECK_MSG(channels <= db.size(), "cannot fill " << channels
                                                      << " channels with only "
                                                      << db.size() << " items");

  // coarse[l] is level l + 1. Every level is built before any Allocation
  // binds to one, so the vector never moves a Database out from under it.
  const std::vector<Database> coarse = [&] {
    DBS_OBS_SPAN("core.ml.coarsen");
    std::vector<Database> levels;
    const std::size_t coarsest = 2 * static_cast<std::size_t>(channels);
    for (const Database* top = &db; top->size() > coarsest;) {
      top = &levels.emplace_back(coarsen(*top));
    }
    return levels;
  }();
  const Database& top = coarse.empty() ? db : coarse.back();

  MultilevelResult result = [&] {
    DBS_OBS_SPAN("core.ml.level");
    MultilevelResult planned{run_drp(top, channels).allocation, 0.0,
                             coarse.size() + 1, {}};
    planned.cds = run_cds(planned.allocation);
    return planned;
  }();
  for (std::size_t l = coarse.size(); l-- > 0;) {
    DBS_OBS_SPAN("core.ml.level");
    const Database& fine = l == 0 ? db : coarse[l - 1];
    const std::vector<ItemId>& order = fine.benefit_order();
    const std::vector<ChannelId>& above = result.allocation.assignment();
    std::vector<ChannelId> projected(fine.size());
    for (std::size_t i = 0; i < order.size(); ++i) projected[order[i]] = above[i / 2];
    result.allocation = Allocation(fine, channels, std::move(projected));
    result.cds = run_cds(result.allocation);
  }
  result.final_cost = result.allocation.cost();
  return result;
}

}  // namespace dbs
