#include "core/relabel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "common/check.h"
#include "common/rng.h"

namespace dbs {
namespace {

std::size_t overlap(const std::vector<ChannelId>& reference,
                    const std::vector<ChannelId>& plan,
                    const std::vector<ChannelId>& label) {
  std::size_t kept = 0;
  for (std::size_t x = 0; x < plan.size(); ++x) {
    if (label[plan[x]] == reference[x]) ++kept;
  }
  return kept;
}

std::vector<ChannelId> random_assignment(std::size_t n, ChannelId k, Rng& rng) {
  std::vector<ChannelId> a(n);
  for (ChannelId& c : a) c = static_cast<ChannelId>(rng.below(k));
  return a;
}

TEST(MatchChannels, ReachesTheBruteForceMaximumOverAllPermutations) {
  Rng rng(17);
  for (ChannelId k = 1; k <= 6; ++k) {
    for (int trial = 0; trial < 40; ++trial) {
      const std::size_t n = 5 + rng.below(60);
      const std::vector<ChannelId> reference = random_assignment(n, k, rng);
      std::vector<ChannelId> plan = random_assignment(n, k, rng);
      // Half the trials plan a relabelled, lightly perturbed reference, the
      // case the serve loop meets every epoch.
      if (trial % 2 == 0) {
        std::vector<ChannelId> shuffle(k);
        std::iota(shuffle.begin(), shuffle.end(), 0);
        for (ChannelId i = k; i > 1; --i) std::swap(shuffle[i - 1], shuffle[rng.below(i)]);
        for (std::size_t x = 0; x < n; ++x) {
          plan[x] = rng.below(5) == 0 ? plan[x] : shuffle[reference[x]];
        }
      }
      const std::vector<ChannelId> label = match_channels(reference, plan, k);
      std::vector<ChannelId> sorted = label;
      std::sort(sorted.begin(), sorted.end());
      std::vector<ChannelId> identity(k);
      std::iota(identity.begin(), identity.end(), 0);
      ASSERT_EQ(sorted, identity) << "label is not a permutation";

      std::size_t best = 0;
      std::vector<ChannelId> candidate = identity;
      do {
        best = std::max(best, overlap(reference, plan, candidate));
      } while (std::next_permutation(candidate.begin(), candidate.end()));
      EXPECT_EQ(overlap(reference, plan, label), best)
          << "K=" << k << " trial " << trial;
    }
  }
}

TEST(MatchChannels, UndoesAPureRelabelling) {
  const std::vector<ChannelId> reference = {0, 0, 1, 2, 2, 2, 3, 1};
  const std::vector<ChannelId> rename = {2, 3, 0, 1};
  std::vector<ChannelId> plan(reference.size());
  for (std::size_t x = 0; x < plan.size(); ++x) plan[x] = rename[reference[x]];
  const std::vector<ChannelId> label = match_channels(reference, plan, 4);
  for (std::size_t x = 0; x < plan.size(); ++x) EXPECT_EQ(label[plan[x]], reference[x]);
}

TEST(MatchChannels, RejectsMismatchedInputs) {
  const std::vector<ChannelId> three = {0, 1, 0};
  const std::vector<ChannelId> two = {0, 1};
  EXPECT_THROW(match_channels(three, two, 2), ContractViolation);
  EXPECT_THROW(match_channels(three, three, 0), ContractViolation);
  EXPECT_THROW(match_channels(three, std::vector<ChannelId>{0, 2, 0}, 2),
               ContractViolation);
}

}  // namespace
}  // namespace dbs
