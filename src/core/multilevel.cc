#include "core/multilevel.h"

#include <utility>
#include <vector>

#include "common/check.h"
#include "core/drp.h"
#include "obs/obs.h"

namespace dbs {

namespace {

/// One coarsening step: super-item i pairs positions 2i and 2i + 1 of the
/// finer level's benefit order; parent[x] names the super-item holding the
/// finer level's item x.
struct CoarseLevel {
  Database db;
  std::vector<ItemId> parent;
};

CoarseLevel coarsen(const Database& fine) {
  const std::vector<ItemId>& order = fine.benefit_order();
  const std::span<const double> f = fine.benefit_freqs();
  const std::span<const double> z = fine.benefit_sizes();
  const std::size_t pairs = (order.size() + 1) / 2;
  std::vector<double> freqs(pairs, 0.0);
  std::vector<double> sizes(pairs, 0.0);
  std::vector<ItemId> parent(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    freqs[i / 2] += f[i];
    sizes[i / 2] += z[i];
    parent[order[i]] = static_cast<ItemId>(i / 2);
  }
  return {Database(sizes, freqs), std::move(parent)};
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
  std::vector<CoarseLevel> coarse;
  const Database* top = &db;
  while (top->size() > 2 * static_cast<std::size_t>(channels)) {
    coarse.push_back(coarsen(*top));
    top = &coarse.back().db;
  }

  MultilevelResult result = [&] {
    DBS_OBS_SPAN("core.ml.level");
    MultilevelResult planned{run_drp(*top, channels).allocation, 0.0,
                             coarse.size() + 1, {}};
    planned.cds = run_cds(planned.allocation);
    return planned;
  }();
  for (std::size_t l = coarse.size(); l-- > 0;) {
    DBS_OBS_SPAN("core.ml.level");
    const Database& fine = l == 0 ? db : coarse[l - 1].db;
    const std::vector<ChannelId>& above = result.allocation.assignment();
    std::vector<ChannelId> projected(fine.size());
    for (ItemId x = 0; x < projected.size(); ++x) {
      projected[x] = above[coarse[l].parent[x]];
    }
    result.allocation = Allocation(fine, channels, std::move(projected));
    result.cds = run_cds(result.allocation);
  }
  result.final_cost = result.allocation.cost();
  return result;
}

}  // namespace dbs
