#include "core/swap.h"

namespace dbs {

double swap_gain(const Allocation& alloc, ItemId a, ItemId b) {
  const ChannelId p = alloc.channel_of(a);
  const ChannelId q = alloc.channel_of(b);
  if (p == q) return 0.0;
  const Item& ia = alloc.database().item(a);
  const Item& ib = alloc.database().item(b);
  const double fp = alloc.freq_of(p);
  const double zp = alloc.size_of(p);
  const double fq = alloc.freq_of(q);
  const double zq = alloc.size_of(q);
  const double new_p = (fp - ia.freq + ib.freq) * (zp - ia.size + ib.size);
  const double new_q = (fq - ib.freq + ia.freq) * (zq - ib.size + ia.size);
  return (fp * zp + fq * zq) - (new_p + new_q);
}

SwapMove best_swap(const Allocation& alloc) {
  SwapMove best;
  bool have = false;
  const std::size_t n = alloc.items();
  for (ItemId a = 0; a < n; ++a) {
    for (ItemId b = a + 1; b < n; ++b) {
      if (alloc.channel_of(a) == alloc.channel_of(b)) continue;
      const double gain = swap_gain(alloc, a, b);
      if (!have || gain > best.gain) {
        have = true;
        best = SwapMove{a, b, alloc.channel_of(a), alloc.channel_of(b), gain};
      }
    }
  }
  return best;
}

DeepSearchStats run_cds_with_swaps(Allocation& alloc, const CdsOptions& options) {
  DeepSearchStats stats;
  stats.initial_cost = alloc.cost();

  while (true) {
    const CdsStats phase = run_cds(alloc, options);
    stats.cds.iterations += phase.iterations;

    const SwapMove swap = best_swap(alloc);
    if (swap.gain <= kCdsMinGain) break;
    // Apply the exchange as two moves (aggregates stay exact throughout).
    alloc.move(swap.a, swap.from_b);
    alloc.move(swap.b, swap.from_a);
    ++stats.swap_steps;
  }

  stats.cds.initial_cost = stats.initial_cost;
  stats.cds.final_cost = alloc.cost();
  stats.final_cost = alloc.cost();
  return stats;
}

}  // namespace dbs
