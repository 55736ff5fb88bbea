#include "model/allocation.h"

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/rng.h"
#include "workload/generator.h"

namespace dbs {
namespace {

Database small_db() {
  return Database({2.0, 3.0, 5.0, 1.0}, {0.4, 0.3, 0.2, 0.1});
}

TEST(Allocation, DefaultPutsEverythingOnChannelZero) {
  const Database db = small_db();
  const Allocation alloc(db, 3);
  EXPECT_EQ(alloc.count_of(0), 4u);
  EXPECT_EQ(alloc.count_of(1), 0u);
  EXPECT_DOUBLE_EQ(alloc.freq_of(0), 1.0);
  EXPECT_DOUBLE_EQ(alloc.size_of(0), 11.0);
}

TEST(Allocation, ExplicitAssignmentAggregates) {
  const Database db = small_db();
  const Allocation alloc(db, 2, {0, 1, 0, 1});
  EXPECT_DOUBLE_EQ(alloc.freq_of(0), 0.6);
  EXPECT_DOUBLE_EQ(alloc.size_of(0), 7.0);
  EXPECT_DOUBLE_EQ(alloc.freq_of(1), 0.4);
  EXPECT_DOUBLE_EQ(alloc.size_of(1), 4.0);
  EXPECT_EQ(alloc.count_of(0), 2u);
  EXPECT_EQ(alloc.count_of(1), 2u);
  EXPECT_DOUBLE_EQ(alloc.weighted_size_of(0), 0.4 * 2.0 + 0.2 * 5.0);
  EXPECT_DOUBLE_EQ(alloc.weighted_size_of(1), 0.3 * 3.0 + 0.1 * 1.0);
}

TEST(Allocation, CostMatchesDefinition) {
  const Database db = small_db();
  const Allocation alloc(db, 2, {0, 1, 0, 1});
  EXPECT_NEAR(alloc.cost(), 0.6 * 7.0 + 0.4 * 4.0, 1e-12);
  EXPECT_NEAR(alloc.channel_cost(0), 4.2, 1e-12);
  EXPECT_NEAR(alloc.channel_cost(1), 1.6, 1e-12);
}

TEST(Allocation, MoveUpdatesAggregatesIncrementally) {
  const Database db = small_db();
  Allocation alloc(db, 2, {0, 1, 0, 1});
  alloc.move(0, 1);  // item 0: f=0.4, z=2
  EXPECT_DOUBLE_EQ(alloc.freq_of(0), 0.2);
  EXPECT_DOUBLE_EQ(alloc.size_of(0), 5.0);
  EXPECT_DOUBLE_EQ(alloc.freq_of(1), 0.8);
  EXPECT_DOUBLE_EQ(alloc.size_of(1), 6.0);
  EXPECT_DOUBLE_EQ(alloc.weighted_size_of(0), 0.2 * 5.0);
  EXPECT_DOUBLE_EQ(alloc.weighted_size_of(1), 0.4 * 2.0 + 0.3 * 3.0 + 0.1 * 1.0);
  EXPECT_EQ(alloc.channel_of(0), 1u);
  EXPECT_NEAR(alloc.cost(), alloc.cost_recomputed(), 1e-12);
}

TEST(Allocation, MoveToSameChannelIsNoop) {
  const Database db = small_db();
  Allocation alloc(db, 2, {0, 1, 0, 1});
  const double before = alloc.cost();
  alloc.move(0, 0);
  EXPECT_DOUBLE_EQ(alloc.cost(), before);
  EXPECT_EQ(alloc.count_of(0), 2u);
}

TEST(Allocation, MoveGainMatchesActualCostChange) {
  const Database db = small_db();
  Allocation alloc(db, 3, {0, 1, 2, 0});
  for (ItemId id = 0; id < db.size(); ++id) {
    for (ChannelId c = 0; c < 3; ++c) {
      const double predicted = alloc.move_gain(id, c);
      const double before = alloc.cost();
      Allocation copy = alloc;
      copy.move(id, c);
      EXPECT_NEAR(before - copy.cost(), predicted, 1e-12)
          << "item " << id << " -> channel " << c;
    }
  }
}

TEST(Allocation, MoveGainToOwnChannelIsZero) {
  const Database db = small_db();
  const Allocation alloc(db, 2, {0, 1, 0, 1});
  EXPECT_DOUBLE_EQ(alloc.move_gain(0, 0), 0.0);
}

TEST(Allocation, MembersListAscendingIdsPerChannel) {
  const Database db = small_db();
  Allocation alloc(db, 3, {1, 0, 1, 0});
  EXPECT_EQ(alloc.members(),
            (std::vector<std::vector<ItemId>>{{1, 3}, {0, 2}, {}}));
  alloc.move(3, 2);
  alloc.move(0, 2);
  EXPECT_EQ(alloc.members(),
            (std::vector<std::vector<ItemId>>{{1}, {2}, {0, 3}}));
}

TEST(Allocation, ValidateAcceptsConsistentState) {
  const Database db = small_db();
  Allocation alloc(db, 2, {0, 1, 0, 1});
  alloc.move(2, 1);
  std::string error;
  EXPECT_TRUE(alloc.validate(&error)) << error;
}

TEST(Allocation, RejectsBadConstruction) {
  const Database db = small_db();
  EXPECT_THROW(Allocation(db, 0), ContractViolation);
  EXPECT_THROW(Allocation(db, 2, {0, 1, 0}), ContractViolation);    // short
  EXPECT_THROW(Allocation(db, 2, {0, 1, 0, 2}), ContractViolation); // channel 2
}

TEST(Allocation, RejectsOutOfRangeQueries) {
  const Database db = small_db();
  const Allocation alloc(db, 2, {0, 1, 0, 1});
  EXPECT_THROW(alloc.freq_of(2), ContractViolation);
  EXPECT_THROW(alloc.weighted_size_of(2), ContractViolation);
  EXPECT_THROW(alloc.channel_of(9), ContractViolation);
  EXPECT_THROW(alloc.move_gain(9, 0), ContractViolation);
}

TEST(Allocation, IncrementalCostStaysExactOverManyMoves) {
  const Database db = generate_database({.items = 60, .skewness = 1.0,
                                         .diversity = 2.0, .seed = 3});
  Allocation alloc(db, 5);
  Rng rng(4);
  for (int step = 0; step < 2000; ++step) {
    const ItemId id = static_cast<ItemId>(rng.below(db.size()));
    const ChannelId to = static_cast<ChannelId>(rng.below(5));
    alloc.move(id, to);
  }
  EXPECT_NEAR(alloc.cost(), alloc.cost_recomputed(), 1e-9);
  std::string error;
  EXPECT_TRUE(alloc.validate(&error)) << error;
}

}  // namespace

// Test-only peer declared as a friend in allocation.h: corrupts internal
// state so validate()'s failure paths can be exercised. Must live at
// namespace dbs scope (friendship does not extend into the anonymous
// namespace).
struct AllocationTestPeer {
  static void set_assignment(Allocation& a, ItemId id, ChannelId c) {
    a.assignment_[id] = c;
  }
  static void set_cached_freq(Allocation& a, ChannelId c, double v) {
    a.freq_[c] = v;
  }
  static void set_cached_size(Allocation& a, ChannelId c, double v) {
    a.size_[c] = v;
  }
  static void set_cached_count(Allocation& a, ChannelId c, std::size_t n) {
    a.count_[c] = n;
  }
  static void set_cached_weighted_size(Allocation& a, ChannelId c, double v) {
    a.weighted_[c] = v;
  }
  static void shrink_assignment(Allocation& a) { a.assignment_.pop_back(); }
};

namespace {

TEST(AllocationValidate, CatchesOutOfRangeChannel) {
  const Database db = small_db();
  Allocation alloc(db, 2, {0, 1, 0, 1});
  AllocationTestPeer::set_assignment(alloc, 2, 7);
  std::string error;
  EXPECT_FALSE(alloc.validate(&error));
  EXPECT_NE(error.find("item 2"), std::string::npos) << error;
  EXPECT_NE(error.find("out-of-range channel 7"), std::string::npos) << error;
}

TEST(AllocationValidate, CatchesCorruptedFrequencyAggregate) {
  const Database db = small_db();
  Allocation alloc(db, 2, {0, 1, 0, 1});
  AllocationTestPeer::set_cached_freq(alloc, 1, 0.999);
  std::string error;
  EXPECT_FALSE(alloc.validate(&error));
  EXPECT_NE(error.find("channel 1"), std::string::npos) << error;
  EXPECT_NE(error.find("diverge"), std::string::npos) << error;
}

TEST(AllocationValidate, CatchesCorruptedSizeAggregate) {
  const Database db = small_db();
  Allocation alloc(db, 2, {0, 1, 0, 1});
  AllocationTestPeer::set_cached_size(alloc, 0, 123.0);
  std::string error;
  EXPECT_FALSE(alloc.validate(&error));
  EXPECT_NE(error.find("channel 0"), std::string::npos) << error;
}

TEST(AllocationValidate, CatchesCorruptedWeightedSizeAggregate) {
  const Database db = small_db();
  Allocation alloc(db, 2, {0, 1, 0, 1});
  AllocationTestPeer::set_cached_weighted_size(alloc, 1, 1.0 + 1e-6);
  std::string error;
  EXPECT_FALSE(alloc.validate(&error));
  EXPECT_NE(error.find("channel 1"), std::string::npos) << error;
  EXPECT_NE(error.find("diverge"), std::string::npos) << error;
}

TEST(AllocationValidate, CatchesCorruptedCount) {
  const Database db = small_db();
  Allocation alloc(db, 2, {0, 1, 0, 1});
  AllocationTestPeer::set_cached_count(alloc, 0, 3);
  std::string error;
  EXPECT_FALSE(alloc.validate(&error));
  EXPECT_NE(error.find("diverge"), std::string::npos) << error;
}

TEST(AllocationValidate, CatchesAssignmentSizeMismatch) {
  const Database db = small_db();
  Allocation alloc(db, 2, {0, 1, 0, 1});
  AllocationTestPeer::shrink_assignment(alloc);
  std::string error;
  EXPECT_FALSE(alloc.validate(&error));
  EXPECT_NE(error.find("size mismatch"), std::string::npos) << error;
}

TEST(AllocationValidate, NullErrorPointerIsAccepted) {
  const Database db = small_db();
  Allocation alloc(db, 2, {0, 1, 0, 1});
  AllocationTestPeer::set_cached_freq(alloc, 0, -1.0);
  EXPECT_FALSE(alloc.validate());       // must not dereference nullptr
  EXPECT_TRUE(Allocation(db, 2).validate());
}

}  // namespace
}  // namespace dbs
