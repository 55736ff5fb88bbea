#include "sim/program.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "workload/generator.h"

namespace dbs {
namespace {

Allocation two_channel_alloc(const Database& db) {
  std::vector<ChannelId> assignment(db.size());
  for (ItemId id = 0; id < db.size(); ++id) assignment[id] = id % 2;
  return Allocation(db, 2, std::move(assignment));
}

TEST(Program, SlotsCoverChannelItemsExactly) {
  const Database db = generate_database({.items = 21, .diversity = 1.0, .seed = 1});
  const Allocation alloc = two_channel_alloc(db);
  const BroadcastProgram program(alloc, 10.0);
  for (ChannelId c = 0; c < 2; ++c) {
    const ChannelSchedule& sched = program.schedule(c);
    EXPECT_EQ(sched.slots.size(), alloc.count_of(c));
    double offset = 0.0;
    for (const Slot& slot : sched.slots) {
      EXPECT_DOUBLE_EQ(slot.start, offset);
      EXPECT_DOUBLE_EQ(slot.duration, db.item(slot.item).size / 10.0);
      EXPECT_EQ(program.channel_of(slot.item), c);
      offset += slot.duration;
    }
    EXPECT_NEAR(sched.cycle_time, alloc.size_of(c) / 10.0, 1e-12);
  }
}

TEST(Program, DeliveryTimeForClientAtZero) {
  const Database db({10.0, 20.0}, {0.5, 0.5});
  const Allocation alloc(db, 1);
  const BroadcastProgram program(alloc, 10.0);
  // Slot 0: item 0, [0, 1); slot 1: item 1, [1, 3). Cycle = 3.
  EXPECT_DOUBLE_EQ(program.delivery_time(0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(program.delivery_time(1, 0.0), 3.0);
}

TEST(Program, MidTransmissionClientWaitsFullCycle) {
  const Database db({10.0, 20.0}, {0.5, 0.5});
  const Allocation alloc(db, 1);
  const BroadcastProgram program(alloc, 10.0);
  // Item 0 transmits over [0,1). A client at t=0.5 missed the start and must
  // wait for the occurrence at t=3: delivery at 4.
  EXPECT_DOUBLE_EQ(program.delivery_time(0, 0.5), 4.0);
  // A client at exactly t=3 boards immediately.
  EXPECT_DOUBLE_EQ(program.delivery_time(0, 3.0), 4.0);
  // Just after the start at t=3.0 -> next cycle at 6.
  EXPECT_DOUBLE_EQ(program.delivery_time(0, 3.0001), 7.0);
}

TEST(Program, WaitingTimeIsDeliveryMinusArrival) {
  const Database db({10.0, 20.0}, {0.5, 0.5});
  const Allocation alloc(db, 1);
  const BroadcastProgram program(alloc, 10.0);
  EXPECT_DOUBLE_EQ(program.waiting_time(1, 0.5), 2.5);
}

TEST(Program, MeanWaitOverCycleMatchesEq1) {
  // Sample tune-in times uniformly over one cycle: the empirical mean wait
  // for item j must approach Z/(2b) + z_j/b.
  const Database db({4.0, 6.0, 10.0}, {0.3, 0.4, 0.3});
  const Allocation alloc(db, 1);
  const double b = 2.0;
  const BroadcastProgram program(alloc, b);
  const double cycle = program.schedule(0).cycle_time;
  for (ItemId id = 0; id < 3; ++id) {
    const int samples = 20000;
    double sum = 0.0;
    for (int i = 0; i < samples; ++i) {
      const double t = cycle * (static_cast<double>(i) + 0.5) / samples;
      sum += program.waiting_time(id, t);
    }
    const double expected = alloc.size_of(0) / (2.0 * b) + db.item(id).size / b;
    EXPECT_NEAR(sum / samples, expected, 0.01) << "item " << id;
  }
}

TEST(Program, SlotsListEachChannelById) {
  // Tie-heavy integer sizes and frequencies, zeros included, scattered over
  // five channels: each channel's slots must list its ids in ascending
  // order, and each slot must start where the previous one ends.
  std::vector<double> sizes(200);
  std::vector<double> freqs(200);
  std::vector<ChannelId> assignment(200);
  Rng rng(41);
  for (std::size_t i = 0; i < 200; ++i) {
    sizes[i] = static_cast<double>(1 + rng.below(3));
    freqs[i] = static_cast<double>(rng.below(4));
    assignment[i] = static_cast<ChannelId>(rng.below(5));
  }
  freqs[0] = 1.0;
  const Database db(sizes, freqs);
  const Allocation alloc(db, 5, assignment);
  const BroadcastProgram program(alloc, 10.0);
  for (ChannelId c = 0; c < 5; ++c) {
    std::vector<ItemId> expected;
    for (ItemId id = 0; id < db.size(); ++id) {
      if (assignment[id] == c) expected.push_back(id);
    }
    const std::vector<Slot>& slots = program.schedule(c).slots;
    ASSERT_EQ(slots.size(), expected.size());
    double offset = 0.0;
    for (std::size_t i = 0; i < slots.size(); ++i) {
      EXPECT_EQ(slots[i].item, expected[i]) << "channel " << c << ", slot " << i;
      EXPECT_EQ(slots[i].start, offset);
      offset += slots[i].duration;
    }
    EXPECT_EQ(program.schedule(c).cycle_time, offset);
  }
}

TEST(Program, RejectsBadBandwidthAndQueries) {
  const Database db({1.0}, {1.0});
  const Allocation alloc(db, 1);
  EXPECT_THROW(BroadcastProgram(alloc, 0.0), ContractViolation);
  const BroadcastProgram program(alloc, 1.0);
  EXPECT_THROW(program.delivery_time(5, 0.0), ContractViolation);
  EXPECT_THROW(program.delivery_time(0, -1.0), ContractViolation);
  EXPECT_THROW(program.schedule(1), ContractViolation);
}

}  // namespace
}  // namespace dbs
