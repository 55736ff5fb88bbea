#include "core/relabel.h"

#include <cstdint>
#include <limits>

#include "common/check.h"

namespace dbs {

std::vector<ChannelId> match_channels(std::span<const ChannelId> reference,
                                      std::span<const ChannelId> plan,
                                      ChannelId channels) {
  DBS_CHECK_MSG(reference.size() == plan.size(),
                "reference (" << reference.size() << ") and plan (" << plan.size()
                              << ") must cover the same items");
  DBS_CHECK_MSG(channels >= 1, "need at least one channel");
  const std::size_t k = channels;
  // overlap[c * k + r]: items plan puts on c and reference puts on r.
  std::vector<std::int64_t> overlap(k * k, 0);
  for (std::size_t x = 0; x < plan.size(); ++x) {
    DBS_CHECK_MSG(plan[x] < channels && reference[x] < channels,
                  "item " << x << " names a channel outside 0.." << channels - 1);
    ++overlap[plan[x] * k + reference[x]];
  }

  // Hungarian method with potentials (shortest augmenting paths), minimising
  // −overlap. Rows and columns are 1-based, with 0 the virtual start column:
  // row i is plan channel i − 1, column j is reference channel j − 1, and
  // row_of[j] is the row currently matched to column j (0 = none).
  constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max();
  std::vector<std::int64_t> u(k + 1, 0);
  std::vector<std::int64_t> v(k + 1, 0);
  std::vector<std::int64_t> min_slack(k + 1);
  std::vector<std::size_t> row_of(k + 1, 0);
  std::vector<std::size_t> way(k + 1, 0);
  std::vector<bool> used(k + 1);
  for (std::size_t i = 1; i <= k; ++i) {
    row_of[0] = i;
    std::size_t j0 = 0;
    min_slack.assign(k + 1, kInf);
    used.assign(k + 1, false);
    do {
      used[j0] = true;
      const std::size_t i0 = row_of[j0];
      std::int64_t delta = kInf;
      std::size_t j1 = 0;
      for (std::size_t j = 1; j <= k; ++j) {
        if (used[j]) continue;
        const std::int64_t slack = -overlap[(i0 - 1) * k + (j - 1)] - u[i0] - v[j];
        if (slack < min_slack[j]) {
          min_slack[j] = slack;
          way[j] = j0;
        }
        if (min_slack[j] < delta) {
          delta = min_slack[j];
          j1 = j;
        }
      }
      for (std::size_t j = 0; j <= k; ++j) {
        if (used[j]) {
          u[row_of[j]] += delta;
          v[j] -= delta;
        } else {
          min_slack[j] -= delta;
        }
      }
      j0 = j1;
    } while (row_of[j0] != 0);
    do {  // flip the augmenting path back to the start column
      const std::size_t j1 = way[j0];
      row_of[j0] = row_of[j1];
      j0 = j1;
    } while (j0 != 0);
  }

  std::vector<ChannelId> label(k);
  for (std::size_t j = 1; j <= k; ++j) {
    label[row_of[j] - 1] = static_cast<ChannelId>(j - 1);
  }
  return label;
}

}  // namespace dbs
