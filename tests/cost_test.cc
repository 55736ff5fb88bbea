#include "model/cost.h"

#include <gtest/gtest.h>

#include "common/check.h"
#include "workload/generator.h"

namespace dbs {
namespace {

TEST(Cost, SingleChannelMatchesIntroFormula) {
  // N items of equal size z on one channel: W = Nz/2b + z/b (paper §1).
  const std::size_t n = 10;
  const double z = 4.0;
  const double b = 2.0;
  const Database db(std::vector<double>(n, z), std::vector<double>(n, 1.0));
  const Allocation alloc(db, 1);
  const double expected = static_cast<double>(n) * z / (2.0 * b) + z / b;
  EXPECT_NEAR(program_waiting_time(alloc, b), expected, 1e-12);
  for (ItemId id = 0; id < n; ++id) {
    EXPECT_NEAR(item_waiting_time(alloc, id, b), expected, 1e-12);
  }
}

TEST(Cost, ItemWaitingTimeEq1) {
  const Database db({10.0, 30.0}, {0.5, 0.5});
  const Allocation alloc(db, 1);
  const double b = 10.0;
  // Z = 40 -> probe 2.0; downloads 1.0 and 3.0.
  EXPECT_NEAR(item_waiting_time(alloc, 0, b), 3.0, 1e-12);
  EXPECT_NEAR(item_waiting_time(alloc, 1, b), 5.0, 1e-12);
}

TEST(Cost, ChannelWaitingTimeIsFrequencyWeighted) {
  const Database db({10.0, 30.0}, {0.75, 0.25});
  const Allocation alloc(db, 1);
  const double b = 10.0;
  const double expected = 0.75 * 3.0 + 0.25 * 5.0;
  EXPECT_NEAR(channel_waiting_time(alloc, 0, b), expected, 1e-12);
}

TEST(Cost, EmptyChannelWaitingTimeIsZero) {
  const Database db({10.0}, {1.0});
  const Allocation alloc(db, 2, {0});
  EXPECT_DOUBLE_EQ(channel_waiting_time(alloc, 1, 10.0), 0.0);
}

TEST(Cost, ProgramWaitEqualsWeightedChannelWaits) {
  // Eq. 2 = Σ F_i · W^(i); verify across a random allocation.
  const Database db = generate_database({.items = 40, .skewness = 0.9,
                                         .diversity = 1.5, .seed = 11});
  std::vector<ChannelId> assignment(db.size());
  for (ItemId id = 0; id < db.size(); ++id) assignment[id] = id % 4;
  const Allocation alloc(db, 4, std::move(assignment));
  const double b = 10.0;
  double weighted = 0.0;
  for (ChannelId c = 0; c < 4; ++c) {
    weighted += alloc.freq_of(c) * channel_waiting_time(alloc, c, b);
  }
  EXPECT_NEAR(program_waiting_time(alloc, b), weighted, 1e-10);
}

TEST(Cost, ProgramWaitDecomposesIntoProbeAndDownload) {
  const Database db = generate_database({.items = 30, .seed = 2});
  const Allocation alloc(db, 3, std::vector<ChannelId>(30, 0));
  const double b = 7.0;
  EXPECT_NEAR(program_waiting_time(alloc, b),
              probe_component(alloc, b) + download_component(db, b), 1e-12);
}

TEST(Cost, DownloadComponentIsScheduleIndependent) {
  const Database db = generate_database({.items = 24, .seed = 5});
  const double b = 10.0;
  const Allocation a(db, 3, [&] {
    std::vector<ChannelId> v(24);
    for (ItemId i = 0; i < 24; ++i) v[i] = i % 3;
    return v;
  }());
  const Allocation c(db, 3, std::vector<ChannelId>(24, 1));
  // Different allocations, same download term.
  EXPECT_NEAR(download_component(a.database(), b), download_component(c.database(), b),
              1e-15);
}

TEST(Cost, ProbeComponentIsHalfCostOverBandwidth) {
  const Database db = generate_database({.items = 16, .seed = 6});
  const Allocation alloc(db, 2, [&] {
    std::vector<ChannelId> v(16);
    for (ItemId i = 0; i < 16; ++i) v[i] = i % 2;
    return v;
  }());
  EXPECT_NEAR(probe_component(alloc, 5.0), alloc.cost() / 10.0, 1e-12);
}

TEST(Cost, BandwidthScalesInversely) {
  const Database db = generate_database({.items = 20, .seed = 9});
  const Allocation alloc(db, 2, std::vector<ChannelId>(20, 0));
  EXPECT_NEAR(program_waiting_time(alloc, 20.0) * 2.0,
              program_waiting_time(alloc, 10.0), 1e-12);
}

TEST(Cost, RejectsNonPositiveBandwidth) {
  const Database db({1.0}, {1.0});
  const Allocation alloc(db, 1);
  EXPECT_THROW(program_waiting_time(alloc, 0.0), ContractViolation);
  EXPECT_THROW(item_waiting_time(alloc, 0, -1.0), ContractViolation);
}

}  // namespace
}  // namespace dbs
