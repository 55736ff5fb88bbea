#include "baselines/annealing.h"

#include <cmath>
#include <cstdint>

#include "baselines/greedy.h"
#include "common/check.h"
#include "common/rng.h"

namespace dbs {
namespace {

constexpr double kInitialTemperature = 0.05;  // share of the start's cost
constexpr double kCooling = 0.9999;           // geometric factor per step
constexpr std::uint64_t kSeed = 7;            // seeds the proposal stream

}  // namespace

AnnealResult run_annealing(const Database& db, ChannelId channels,
                           const AnnealOptions& options) {
  const std::size_t n = db.size();
  DBS_CHECK(channels >= 1);
  DBS_CHECK_MSG(channels <= n, "cannot fill more channels than items");

  Rng rng(kSeed);

  Allocation current = greedy_insertion(db, channels);
  double current_cost = current.cost();
  Allocation best = current;
  double best_cost = current_cost;
  double temperature = kInitialTemperature * current_cost;
  std::size_t accepted = 0;

  for (std::size_t step = 0; step < options.steps && channels > 1; ++step) {
    const ItemId item = static_cast<ItemId>(rng.below(n));
    // Propose a different channel (channels ≥ 2 here).
    ChannelId to = static_cast<ChannelId>(rng.below(channels - 1));
    if (to >= current.channel_of(item)) ++to;

    const double gain = current.move_gain(item, to);  // positive = downhill
    const bool accept =
        gain >= 0.0 ||
        (temperature > 0.0 && rng.uniform01() < std::exp(gain / temperature));
    if (accept) {
      current.move(item, to);
      current_cost -= gain;
      ++accepted;
      if (current_cost < best_cost) {
        best = current;
        best_cost = current_cost;
      }
    }
    temperature *= kCooling;
  }

  // Re-derive the exact cost to shed any accumulated float drift.
  best_cost = best.cost();
  return AnnealResult{std::move(best), best_cost, accepted};
}

}  // namespace dbs
