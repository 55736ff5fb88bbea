#include "core/partition.h"

#include <algorithm>

#include "common/check.h"
#include "obs/obs.h"

namespace dbs {
namespace {

// Split points per block of the pruned scan.
constexpr std::size_t kBlockPoints = 256;

}  // namespace

PrefixSums::PrefixSums(const Database& db, std::span<const ItemId> order)
    : freq(order.size() + 1), size(order.size() + 1) {
  DBS_CHECK_MSG(order.size() <= db.size(),
                "order names more items than the database holds");
  const std::span<const double> item_freq = db.freqs();
  const std::span<const double> item_size = db.sizes();
  for (std::size_t i = 0; i < order.size(); ++i) {
    const ItemId id = order[i];
    DBS_CHECK_MSG(id < db.size(), "order names unknown item " << id);
    freq[i + 1] = freq[i] + item_freq[id];
    size[i + 1] = size[i] + item_size[id];
  }
}

PrefixSums::PrefixSums(std::span<const double> freqs, std::span<const double> sizes)
    : freq(freqs.size() + 1), size(sizes.size() + 1) {
  DBS_CHECK_MSG(freqs.size() == sizes.size(), "prefix columns must be parallel");
  for (std::size_t i = 0; i < freqs.size(); ++i) {
    freq[i + 1] = freq[i] + freqs[i];
    size[i + 1] = size[i] + sizes[i];
  }
}

SplitResult best_split(const PrefixSums& sums, std::size_t begin, std::size_t end) {
  DBS_CHECK_MSG(end <= sums.freq.size() - 1, "slice end out of range");
  DBS_CHECK_MSG(begin + 2 <= end, "cannot split a group of fewer than two items");
  DBS_OBS_COUNTER_INC("core.partition.split_searches");

  // Hoist the slice endpoints so the scan touches only the two contiguous
  // prefix columns. The arithmetic is term-for-term identical to
  // cost_of(begin, p) + cost_of(p, end), so results stay bit-identical to
  // the pre-columnar scan.
  const double* pf = sums.freq.data();
  const double* pz = sums.size.data();
  const double f0 = pf[begin], z0 = pz[begin];
  const double f1 = pf[end], z1 = pz[end];
  const auto left = [&](std::size_t p) { return (pf[p] - f0) * (pz[p] - z0); };
  const auto right = [&](std::size_t p) { return (f1 - pf[p]) * (z1 - pz[p]); };

  // The result is the smallest (total, p): ties resolve to the smallest p,
  // whatever order the candidates are visited in.
  const std::size_t first = begin + 1;
  SplitResult best{first, left(first), right(first)};
  double best_total = best.total();
  const auto consider = [&](std::size_t p) {
    const double l = left(p);
    const double r = right(p);
    const double total = l + r;
    if (total < best_total || (total == best_total && p < best.split)) {
      best_total = total;
      best = SplitResult{p, l, r};
    }
  };

  // Prefix sums of non-negative f and z never decrease, and IEEE rounding
  // is monotone, so left(p) never decreases and right(p) never increases
  // along the slice. Every split point of the block [a, b) therefore costs
  // at least left(a) + right(b − 1): a block whose bound exceeds the best
  // total so far holds neither a better split nor an equal one, and is
  // skipped. Seeding the best with every block's first point makes that
  // bound bite from the first block on. `priced` tallies the split points
  // priced: every block's first point, then the rest of each scanned block.
  std::size_t priced = 0;
  for (std::size_t a = first; a < end; a += kBlockPoints, ++priced) consider(a);
  for (std::size_t a = first; a < end; a += kBlockPoints) {
    const std::size_t b = std::min(a + kBlockPoints, end);
    if (left(a) + right(b - 1) > best_total) continue;
    priced += b - a - 1;
    for (std::size_t p = a + 1; p < b; ++p) consider(p);
  }
  DBS_OBS_COUNTER_ADD("core.partition.split_candidates", priced);
  return best;
}

}  // namespace dbs
