#include "sim/program.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "sim/simulator.h"
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
    const ChannelSchedule sched = program.schedule(c);
    const std::vector<Slot>& slots = sched.slots;
    ASSERT_EQ(slots.size(), expected.size());
    double offset = 0.0;
    for (std::size_t i = 0; i < slots.size(); ++i) {
      EXPECT_EQ(slots[i].item, expected[i]) << "channel " << c << ", slot " << i;
      EXPECT_EQ(slots[i].start, offset);
      offset += slots[i].duration;
    }
    EXPECT_EQ(sched.cycle_time, offset);
  }
}

// Reference for the columnar build: K slot vectors filled in one id-order
// pass, then each channel's starts summed in slot order. This is how the
// program stored itself before its columns; every value must match it bit
// for bit.
struct SlotVectorProgram {
  std::vector<ChannelSchedule> schedules;
  std::vector<ChannelId> item_channel;
  std::vector<std::uint32_t> item_slot_index;

  SlotVectorProgram(const Allocation& alloc, double bandwidth)
      : schedules(alloc.channels()),
        item_channel(alloc.assignment()),
        item_slot_index(alloc.items()) {
    const std::span<const double> sizes = alloc.database().sizes();
    for (ItemId id = 0; id < sizes.size(); ++id) {
      std::vector<Slot>& slots = schedules[item_channel[id]].slots;
      item_slot_index[id] = static_cast<std::uint32_t>(slots.size());
      slots.push_back(Slot{id, 0.0, sizes[id] / bandwidth});
    }
    for (ChannelSchedule& sched : schedules) {
      double offset = 0.0;
      for (Slot& slot : sched.slots) {
        slot.start = offset;
        offset += slot.duration;
      }
      sched.cycle_time = offset;
    }
  }

  double delivery_time(ItemId item, double t) const {
    const ChannelSchedule& sched = schedules[item_channel[item]];
    const Slot& slot = sched.slots[item_slot_index[item]];
    const double m = std::ceil((t - slot.start) / sched.cycle_time);
    const double start = slot.start + std::max(0.0, m) * sched.cycle_time;
    return start + slot.duration;
  }
};

TEST(Program, ColumnsMatchTheSlotVectorBuildBitForBit) {
  // Random allocations, tie-heavy integer sizes on every other instance,
  // about a third of the frequencies zero, K = 1 on every fifth instance,
  // and one channel left empty on every third instance with K ≥ 2.
  Rng rng(43);
  for (int instance = 0; instance < 200; ++instance) {
    const bool ties = instance % 2 == 0;
    const std::size_t n = 1 + static_cast<std::size_t>(rng.below(60));
    std::vector<double> sizes(n);
    std::vector<double> freqs(n);
    for (std::size_t i = 0; i < n; ++i) {
      sizes[i] = ties ? static_cast<double>(rng.between(1, 3)) : rng.uniform(0.1, 50.0);
      freqs[i] = rng.chance(1.0 / 3.0) ? 0.0 : static_cast<double>(rng.between(1, 7));
    }
    freqs[static_cast<std::size_t>(rng.below(n))] = 1.0;
    const Database db(std::move(sizes), std::move(freqs));

    const ChannelId k = instance % 5 == 0 ? 1 : static_cast<ChannelId>(rng.between(2, 8));
    const bool leave_idle = k >= 2 && instance % 3 == 0;
    const auto idle = static_cast<ChannelId>(rng.below(k));
    std::vector<ChannelId> assignment(n);
    for (ChannelId& c : assignment) {
      c = static_cast<ChannelId>(rng.below(leave_idle ? k - 1 : k));
      if (leave_idle && c >= idle) ++c;
    }
    const Allocation alloc(db, k, std::move(assignment));
    const double bandwidth = rng.uniform(0.5, 20.0);
    const BroadcastProgram program(alloc, bandwidth);
    const SlotVectorProgram reference(alloc, bandwidth);

    ASSERT_EQ(program.channels(), k);
    double longest = 0.0;
    for (ChannelId c = 0; c < k; ++c) {
      const ChannelSchedule& expected = reference.schedules[c];
      const ChannelSchedule got = program.schedule(c);
      ASSERT_EQ(got.slots.size(), expected.slots.size()) << "instance " << instance;
      for (std::size_t i = 0; i < got.slots.size(); ++i) {
        EXPECT_EQ(got.slots[i].item, expected.slots[i].item);
        EXPECT_EQ(got.slots[i].start, expected.slots[i].start);
        EXPECT_EQ(got.slots[i].duration, expected.slots[i].duration);
      }
      EXPECT_EQ(got.cycle_time, expected.cycle_time);
      longest = std::max(longest, expected.cycle_time);
    }
    if (leave_idle) {
      EXPECT_TRUE(program.schedule(idle).slots.empty());
    }
    for (int probe = 0; probe < 50; ++probe) {
      const auto id = static_cast<ItemId>(rng.below(n));
      EXPECT_EQ(program.channel_of(id), reference.item_channel[id]);
      // Every other probe tunes in exactly at an occurrence's start.
      const ChannelSchedule& sched = reference.schedules[reference.item_channel[id]];
      const double t = probe % 2 == 0
                           ? rng.uniform(0.0, 3.0 * longest)
                           : sched.slots[reference.item_slot_index[id]].start +
                                 static_cast<double>(rng.below(3)) * sched.cycle_time;
      EXPECT_EQ(program.delivery_time(id, t), reference.delivery_time(id, t))
          << "instance " << instance << ", item " << id << ", t = " << t;
    }
  }
}

TEST(Program, SimulationWithAnIdleChannelMatchesClosedFormReplay) {
  // Channel 1 carries nothing: the event engine must skip it and still
  // agree with delivery_time on every request.
  const Database db = generate_database({.items = 30, .diversity = 1.5, .seed = 7});
  std::vector<ChannelId> assignment(db.size());
  for (ItemId id = 0; id < db.size(); ++id) assignment[id] = id % 3 == 0 ? 0 : 2;
  const Allocation alloc(db, 3, std::move(assignment));
  const BroadcastProgram program(alloc, 10.0);
  ASSERT_TRUE(program.schedule(1).slots.empty());
  const auto trace =
      generate_trace(db, {.requests = 1000, .arrival_rate = 5.0, .seed = 8});
  const SimReport des = simulate(program, trace);
  const SimReport replay = replay_analytic(program, trace);
  ASSERT_EQ(des.requests_served, replay.requests_served);
  EXPECT_NEAR(des.mean_wait(), replay.mean_wait(), 1e-9);
  EXPECT_NEAR(des.waiting.max, replay.waiting.max, 1e-9);
  for (ChannelId c = 0; c < 3; ++c) {
    EXPECT_EQ(des.channel_requests[c], replay.channel_requests[c]) << "channel " << c;
    EXPECT_NEAR(des.channel_mean_wait[c], replay.channel_mean_wait[c], 1e-9);
  }
  EXPECT_EQ(des.channel_requests[1], 0u);
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
