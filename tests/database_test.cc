#include "model/database.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/check.h"

namespace dbs {
namespace {

TEST(Item, BenefitRatio) {
  const Item it{0, 4.0, 0.2};
  EXPECT_DOUBLE_EQ(it.benefit_ratio(), 0.05);
}

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
  EXPECT_THROW(Database(std::vector<Item>{}), ContractViolation);
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

TEST(Database, RejectsMismatchedArrays) {
  EXPECT_THROW(Database({1.0, 2.0}, {1.0}), ContractViolation);
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
    EXPECT_GE(db.item(order[i - 1]).benefit_ratio(),
              db.item(order[i]).benefit_ratio());
  }
}

TEST(Database, BenefitRatioOrderBreaksTiesById) {
  // Identical items: order must be stable by id.
  const Database db({1.0, 1.0, 1.0}, {1.0, 1.0, 1.0});
  const auto& order = db.benefit_order();
  EXPECT_EQ(order, (std::vector<ItemId>{0, 1, 2}));
}

TEST(Database, FreqOrderIsDescending) {
  const Database db({1.0, 1.0, 1.0}, {0.2, 0.5, 0.3});
  const auto order = db.ids_by_freq_desc();
  EXPECT_EQ(order, (std::vector<ItemId>{1, 2, 0}));
}

}  // namespace
}  // namespace dbs
