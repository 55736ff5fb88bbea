#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/check.h"

namespace dbs {
namespace {

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> fired;
  q.schedule(3.0, [&] { fired.push_back(3); });
  q.schedule(1.0, [&] { fired.push_back(1); });
  q.schedule(2.0, [&] { fired.push_back(2); });
  q.run_all();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(q.now(), 3.0);
}

TEST(EventQueue, SimultaneousEventsFifo) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) {
    q.schedule(5.0, [&fired, i] { fired.push_back(i); });
  }
  q.run_all();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[i], i);
}

TEST(EventQueue, HandlersCanScheduleMoreEvents) {
  EventQueue q;
  std::vector<double> times;
  std::function<void()> tick = [&] {
    times.push_back(q.now());
    if (times.size() < 5) q.schedule(q.now() + 1.0, tick);
  };
  q.schedule(0.0, tick);
  q.run_all();
  EXPECT_EQ(times, (std::vector<double>{0.0, 1.0, 2.0, 3.0, 4.0}));
}

TEST(EventQueue, StepLeavesLaterEventsPending) {
  EventQueue q;
  int fired = 0;
  q.schedule(1.0, [&] { ++fired; });
  q.schedule(2.0, [&] { ++fired; });
  q.schedule(3.0, [&] { ++fired; });
  // Fire the two events due by t = 2; the one at t = 3 stays queued.
  ASSERT_TRUE(q.step());
  ASSERT_TRUE(q.step());
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(q.now(), 2.0);
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_EQ(q.run_all(), 1u);
  EXPECT_EQ(fired, 3);
}

TEST(EventQueue, StepOnEmptyReturnsFalse) {
  EventQueue q;
  EXPECT_FALSE(q.step());
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, RejectsSchedulingIntoThePast) {
  EventQueue q;
  q.schedule(2.0, [] {});
  q.step();
  EXPECT_THROW(q.schedule(1.0, [] {}), ContractViolation);
  EXPECT_NO_THROW(q.schedule(2.0, [] {}));  // same instant is allowed
}

TEST(EventQueue, NowStartsAtZero) {
  EventQueue q;
  EXPECT_DOUBLE_EQ(q.now(), 0.0);
}

}  // namespace
}  // namespace dbs
