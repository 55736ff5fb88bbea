#include "hetero/hetero.h"

#include <algorithm>
#include <numeric>
#include <span>

#include "common/check.h"
#include "core/cds.h"
#include "core/drp.h"

namespace dbs {
namespace {

void check_bandwidths(const Allocation& alloc, const std::vector<double>& bandwidths) {
  DBS_CHECK_MSG(bandwidths.size() == alloc.channels(),
                "need one bandwidth per channel");
  for (double b : bandwidths) DBS_CHECK_MSG(b > 0.0, "bandwidths must be positive");
}

/// Generalized Eq. (4) gain of moving `id` to channel `to`, read from the
/// allocation's F, Z and P columns in O(1). Arguments are not checked.
double move_gain_unchecked(const Allocation& alloc, const std::vector<double>& bandwidths,
                           ItemId id, ChannelId to) {
  const ChannelId from = alloc.assignment()[id];
  if (from == to) return 0.0;
  const std::span<const double> freq = alloc.channel_freqs();
  const std::span<const double> size = alloc.channel_sizes();
  const double f = alloc.database().freqs()[id];
  const double z = alloc.database().sizes()[id];
  const double fz = f * z;
  const double lost =
      ((f * size[from] + z * freq[from] - fz) / 2.0 + fz) / bandwidths[from];
  const double gained = ((f * size[to] + z * freq[to] + fz) / 2.0 + fz) / bandwidths[to];
  return lost - gained;
}

/// Best-improvement local search on the generalized Δ; returns moves applied.
std::size_t improve_to_local_optimum(Allocation& alloc,
                                     const std::vector<double>& bandwidths) {
  std::size_t moves = 0;
  while (true) {
    ItemId best_item = 0;
    ChannelId best_to = 0;
    double best_gain = 0.0;
    bool have = false;
    for (ItemId id = 0; id < alloc.items(); ++id) {
      for (ChannelId c = 0; c < alloc.channels(); ++c) {
        if (c == alloc.assignment()[id]) continue;
        const double g = move_gain_unchecked(alloc, bandwidths, id, c);
        if (!have || g > best_gain) {
          have = true;
          best_gain = g;
          best_item = id;
          best_to = c;
        }
      }
    }
    if (!have || best_gain <= kCdsMinGain) return moves;
    alloc.move(best_item, best_to);
    ++moves;
  }
}

}  // namespace

double hetero_wait(const Allocation& alloc, const std::vector<double>& bandwidths) {
  check_bandwidths(alloc, bandwidths);
  double w = 0.0;
  for (ChannelId c = 0; c < alloc.channels(); ++c) {
    w += (alloc.freq_of(c) * alloc.size_of(c) / 2.0 + alloc.weighted_size_of(c)) /
         bandwidths[c];
  }
  return w;
}

double hetero_move_gain(const Allocation& alloc,
                        const std::vector<double>& bandwidths, ItemId item,
                        ChannelId to) {
  check_bandwidths(alloc, bandwidths);
  DBS_CHECK(item < alloc.items());
  DBS_CHECK(to < alloc.channels());
  return move_gain_unchecked(alloc, bandwidths, item, to);
}

HeteroResult schedule_hetero(const Database& db,
                             const std::vector<double>& bandwidths) {
  const auto k = static_cast<ChannelId>(bandwidths.size());
  DBS_CHECK_MSG(k >= 1, "need at least one channel");
  for (double b : bandwidths) DBS_CHECK_MSG(b > 0.0, "bandwidths must be positive");

  // Step 1: DRP grouping, then heaviest group -> fastest channel.
  DrpResult drp = run_drp(db, k);
  std::vector<double> group_load(k, 0.0);  // P + F·Z/2 per DRP channel
  for (ChannelId c = 0; c < k; ++c) {
    group_load[c] = drp.allocation.weighted_size_of(c) +
                    drp.allocation.freq_of(c) * drp.allocation.size_of(c) / 2.0;
  }

  std::vector<ChannelId> groups_by_load(k), channels_by_bw(k);
  std::iota(groups_by_load.begin(), groups_by_load.end(), 0);
  std::iota(channels_by_bw.begin(), channels_by_bw.end(), 0);
  std::stable_sort(groups_by_load.begin(), groups_by_load.end(),
                   [&](ChannelId a, ChannelId b) { return group_load[a] > group_load[b]; });
  std::stable_sort(channels_by_bw.begin(), channels_by_bw.end(),
                   [&](ChannelId a, ChannelId b) { return bandwidths[a] > bandwidths[b]; });
  std::vector<ChannelId> relabel(k);
  for (ChannelId r = 0; r < k; ++r) relabel[groups_by_load[r]] = channels_by_bw[r];

  std::vector<ChannelId> assignment(db.size());
  for (ItemId id = 0; id < db.size(); ++id) {
    assignment[id] = relabel[drp.allocation.channel_of(id)];
  }
  Allocation alloc(db, k, std::move(assignment));

  // Step 2: generalized-Δ local search to a local optimum.
  const std::size_t moves = improve_to_local_optimum(alloc, bandwidths);
  const double wait = hetero_wait(alloc, bandwidths);
  return HeteroResult{std::move(alloc), wait, moves};
}

}  // namespace dbs
