#include "model/database.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "obs/obs.h"  // for the DBS_OBS_ENABLED default

namespace dbs {
namespace {

TEST(Database, AssignsIdsInInputOrder) {
  const Database db({2.0, 3.0, 4.0}, {1.0, 1.0, 2.0});
  ASSERT_EQ(db.size(), 3u);
  for (ItemId id = 0; id < 3; ++id) EXPECT_EQ(db.item(id).id, id);
}

TEST(Database, NormalizesFrequencies) {
  const Database db({1.0, 1.0}, {3.0, 1.0});
  EXPECT_DOUBLE_EQ(db.item(0).freq, 0.75);
  EXPECT_DOUBLE_EQ(db.item(1).freq, 0.25);
}

TEST(Database, AlreadyNormalizedFrequenciesUnchanged) {
  const Database db({1.0, 1.0}, {0.6, 0.4});
  EXPECT_DOUBLE_EQ(db.item(0).freq, 0.6);
  EXPECT_DOUBLE_EQ(db.item(1).freq, 0.4);
}

TEST(Database, TotalAndWeightedSize) {
  const Database db({10.0, 20.0}, {0.25, 0.75});
  EXPECT_DOUBLE_EQ(db.total_size(), 30.0);
  EXPECT_DOUBLE_EQ(db.weighted_size(), 0.25 * 10.0 + 0.75 * 20.0);
}

TEST(Database, RejectsEmpty) {
  EXPECT_THROW(Database({}, {}), ContractViolation);
}

TEST(Database, RejectsNonPositiveSize) {
  EXPECT_THROW(Database({0.0}, {1.0}), ContractViolation);
  EXPECT_THROW(Database({-1.0}, {1.0}), ContractViolation);
}

TEST(Database, RejectsNegativeFrequency) {
  EXPECT_THROW(Database({1.0, 1.0}, {0.5, -0.1}), ContractViolation);
}

TEST(Database, RejectsAllZeroFrequencies) {
  EXPECT_THROW(Database({1.0, 1.0}, {0.0, 0.0}), ContractViolation);
}

TEST(Database, RejectsNonFiniteInput) {
  EXPECT_THROW(Database({std::nan("")}, {1.0}), ContractViolation);
  EXPECT_THROW(Database({1.0}, {std::numeric_limits<double>::infinity()}),
               ContractViolation);
}

TEST(Database, RejectsTotalsThatOverflow) {
  // Every value is finite, but each sum overflows to +inf. Normalizing by
  // Σf = inf would zero every frequency, and DRP-CDS would report cost 0.
  const struct {
    std::vector<double> sizes;
    std::vector<double> freqs;
    const char* message;
  } cases[] = {{{1.0, 1.0, 1.0}, {1e308, 1e308, 1e308}, "total access frequency overflows"},
               {{1e308, 1e308, 1.0}, {1.0, 1.0, 1.0}, "total size overflows"}};
  for (const auto& c : cases) {
    try {
      const Database db(c.sizes, c.freqs);
      ADD_FAILURE() << "accepted a catalogue whose " << c.message;
    } catch (const ContractViolation& e) {
      EXPECT_NE(std::string(e.what()).find(c.message), std::string::npos) << e.what();
    }
  }
}

TEST(Database, RejectsMismatchedArrays) {
  EXPECT_THROW(Database({1.0, 2.0}, {1.0}), ContractViolation);
}

TEST(Database, KeepsTheBuffersOfMovedInColumns) {
  std::vector<double> sizes = {1.0, 2.0, 4.0};
  std::vector<double> freqs = {0.2, 0.5, 0.3};
  const double* size_buffer = sizes.data();
  const double* freq_buffer = freqs.data();
  const Database db(std::move(sizes), std::move(freqs));
  EXPECT_EQ(db.sizes().data(), size_buffer);
  EXPECT_EQ(db.freqs().data(), freq_buffer);
}

TEST(Database, ItemLookupOutOfRangeThrows) {
  const Database db({1.0}, {1.0});
  EXPECT_THROW(db.item(1), ContractViolation);
}

TEST(Database, ZeroFrequencyItemsAllowed) {
  // Unpopular items with f = 0 are legal; they still occupy channel capacity.
  const Database db({1.0, 2.0}, {1.0, 0.0});
  EXPECT_DOUBLE_EQ(db.item(1).freq, 0.0);
}

TEST(Database, BenefitRatioOrderIsDescending) {
  const Database db({1.0, 2.0, 0.5, 4.0}, {0.1, 0.4, 0.2, 0.3});
  const auto& order = db.benefit_order();
  ASSERT_EQ(order.size(), 4u);
  for (std::size_t i = 1; i < order.size(); ++i) {
    const Item before = db.item(order[i - 1]);
    const Item after = db.item(order[i]);
    EXPECT_GE(before.freq / before.size, after.freq / after.size);
  }
}

TEST(Database, BenefitRatioOrderBreaksTiesById) {
  // Identical items: order must be stable by id.
  const Database db({1.0, 1.0, 1.0}, {1.0, 1.0, 1.0});
  const auto& order = db.benefit_order();
  EXPECT_EQ(order, (std::vector<ItemId>{0, 1, 2}));
}

// The orders as std::stable_sort gives them: `key` descending, ties by id.
std::vector<ItemId> stable_sort_desc(const std::vector<double>& key) {
  std::vector<ItemId> ids(key.size());
  std::iota(ids.begin(), ids.end(), 0);
  std::stable_sort(ids.begin(), ids.end(),
                   [&key](ItemId a, ItemId b) { return key[a] > key[b]; });
  return ids;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_matches_reference(const std::vector<double>& sizes,
                              const std::vector<double>& freqs,
                              const std::string& context) {
  const Database db(sizes, freqs);
  std::vector<double> ratio(db.size());
  for (std::size_t i = 0; i < db.size(); ++i) ratio[i] = db.freqs()[i] / db.sizes()[i];
  const std::vector<double> freq(db.freqs().begin(), db.freqs().end());
  const std::vector<ItemId>& order = db.benefit_order();
  ASSERT_EQ(order, stable_sort_desc(ratio)) << context;
  EXPECT_EQ(db.ids_by_freq_desc(), stable_sort_desc(freq)) << context;
  ASSERT_EQ(db.benefit_freqs().size(), db.size()) << context;
  ASSERT_EQ(db.benefit_sizes().size(), db.size()) << context;
  std::size_t mismatches = 0;
  for (std::size_t rank = 0; rank < db.size(); ++rank) {
    mismatches += bits(db.benefit_freqs()[rank]) != bits(db.freqs()[order[rank]]);
    mismatches += bits(db.benefit_sizes()[rank]) != bits(db.sizes()[order[rank]]);
  }
  EXPECT_EQ(mismatches, 0u) << context << ": rank-major columns differ from id columns";
  // Input already in benefit order is its own rank-major copy; any other
  // keeps a separate one.
  std::vector<ItemId> identity(db.size());
  std::iota(identity.begin(), identity.end(), 0);
  const bool in_order = order == identity;
  EXPECT_EQ(db.benefit_freqs().data() == db.freqs().data(), in_order) << context;
  EXPECT_EQ(db.benefit_sizes().data() == db.sizes().data(), in_order) << context;
}

TEST(Database, RadixOrdersMatchAStableSortReference) {
  // Tie-heavy integer catalogues with zero frequencies, at sizes on both
  // sides of several id-field widths, including the step from six 11-bit
  // digits to five (256 to 257 items), and beyond 2^16 items.
  Rng rng(31);
  for (const std::size_t n : {1, 2, 3, 255, 256, 257, 511, 512, 1023, 1024, 2049, 70000}) {
    std::vector<double> sizes(n);
    std::vector<double> freqs(n);
    for (std::size_t i = 0; i < n; ++i) {
      sizes[i] = static_cast<double>(1 + rng.below(4));
      freqs[i] = static_cast<double>(rng.below(4));
    }
    freqs[0] = 1.0;  // a positive total
    expect_matches_reference(sizes, freqs, "integers, n=" + std::to_string(n));
  }

  // Continuous values, then the same catalogue with its ids relabelled so
  // that the ratios arrive in order (the presorted path), in reverse order,
  // and in order but for one swapped pair.
  const std::size_t n = 3000;
  std::vector<double> sizes(n);
  std::vector<double> freqs(n);
  for (std::size_t i = 0; i < n; ++i) {
    sizes[i] = rng.uniform(1.0, 100.0);
    freqs[i] = rng.uniform(0.0, 1.0);
  }
  expect_matches_reference(sizes, freqs, "continuous");
  std::vector<ItemId> by_ratio(n);
  std::iota(by_ratio.begin(), by_ratio.end(), 0);
  std::sort(by_ratio.begin(), by_ratio.end(), [&](ItemId a, ItemId b) {
    return freqs[a] / sizes[a] > freqs[b] / sizes[b];
  });
  std::vector<double> sorted_sizes(n);
  std::vector<double> sorted_freqs(n);
  for (std::size_t i = 0; i < n; ++i) {
    sorted_sizes[i] = sizes[by_ratio[i]];
    sorted_freqs[i] = freqs[by_ratio[i]];
  }
  expect_matches_reference(sorted_sizes, sorted_freqs, "already sorted");
  std::reverse(sorted_sizes.begin(), sorted_sizes.end());
  std::reverse(sorted_freqs.begin(), sorted_freqs.end());
  expect_matches_reference(sorted_sizes, sorted_freqs, "reverse sorted");
  std::reverse(sorted_sizes.begin(), sorted_sizes.end());
  std::reverse(sorted_freqs.begin(), sorted_freqs.end());
  std::swap(sorted_sizes[n / 2], sorted_sizes[n / 2 + 1]);
  std::swap(sorted_freqs[n / 2], sorted_freqs[n / 2 + 1]);
  expect_matches_reference(sorted_sizes, sorted_freqs, "one pair out of order");

  // Ratios a few ulps apart, shuffled over the ids: they share all but
  // their lowest bits, where the radix records carry the ids.
  for (const std::size_t m : {300, 5000}) {
    std::vector<ItemId> shuffled(m);
    std::iota(shuffled.begin(), shuffled.end(), 0);
    for (std::size_t i = m - 1; i > 0; --i) std::swap(shuffled[i], shuffled[rng.below(i + 1)]);
    std::vector<double> near_freqs(m);
    for (std::size_t i = 0; i < m; ++i) {
      near_freqs[i] = 1.0 + static_cast<double>(shuffled[i] / 3) * 0x1p-52;
    }
    expect_matches_reference(std::vector<double>(m, 1.0), near_freqs,
                             "ratios ulps apart, m=" + std::to_string(m));
  }

  // Equal ratios arriving in id order are sorted already.
  expect_matches_reference({1.0, 2.0, 4.0, 1.0}, {1.0, 2.0, 4.0, 1.0}, "all ties");
  // −0.0 orders with +0.0: zero-frequency items keep id order.
  expect_matches_reference({1.0, 2.0, 3.0, 4.0, 5.0}, {0.0, -0.0, 1.0, 0.0, -0.0},
                           "signed zeros");
  // Subnormal ratios, ties among them, and ratios that overflow to +inf.
  expect_matches_reference({1e10, 1e10, 2e10, 1.0, 1e-310, 2e-310, 1e10},
                           {2e-310, 1e-310, 4e-310, 1.0, 0.5, 0.5, 0.0},
                           "subnormal and infinite ratios");
}

TEST(Database, FreqOrderIsDescending) {
  const Database db({1.0, 1.0, 1.0}, {0.2, 0.5, 0.3});
  const auto order = db.ids_by_freq_desc();
  EXPECT_EQ(order, (std::vector<ItemId>{1, 2, 0}));
}

#if DBS_OBS_ENABLED
std::uint64_t radix_passes() {
  return obs::MetricsRegistry::global().counter("model.database.radix_passes").value();
}

TEST(Database, CountsTheRadixPassesItRuns) {
  // Ratios that arrive in order are not sorted, so they add no pass. The
  // same catalogue reversed takes at least one and at most five: 3000 ids
  // fill 12 bits, leaving ⌈52 / 11⌉ digits.
  const std::size_t n = 3000;
  std::vector<double> freqs(n);
  for (std::size_t i = 0; i < n; ++i) freqs[i] = static_cast<double>(n - i);
  std::uint64_t before = radix_passes();
  const Database in_order(std::vector<double>(n, 1.0), freqs);
  EXPECT_EQ(radix_passes() - before, 0u);

  std::reverse(freqs.begin(), freqs.end());
  before = radix_passes();
  const Database reversed(std::vector<double>(n, 1.0), freqs);
  EXPECT_GE(radix_passes() - before, 1u);
  EXPECT_LE(radix_passes() - before, 5u);
}
#endif

}  // namespace
}  // namespace dbs
