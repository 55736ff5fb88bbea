#include "model/allocation_io.h"

#include <gtest/gtest.h>

#include <sstream>

#include "core/drp_cds.h"
#include "workload/generator.h"

namespace dbs {
namespace {

TEST(AllocationIo, RoundTrip) {
  const Database db = generate_database({.items = 30, .diversity = 2.0, .seed = 1});
  const Allocation original = run_drp_cds(db, 4).allocation;
  std::ostringstream out;
  store_allocation(out, original, 1.0 / 3);
  std::istringstream in(out.str());
  const StoredAllocation loaded = load_allocation(in, db);
  EXPECT_EQ(loaded.allocation.assignment(), original.assignment());
  EXPECT_EQ(loaded.bandwidth, 1.0 / 3) << "bandwidth must reload bit-identical";
  EXPECT_DOUBLE_EQ(loaded.allocation.cost(), original.cost());
}

TEST(AllocationIo, IgnoresCommentsAndBlankLines) {
  const Database db({1.0, 2.0}, {0.5, 0.5});
  std::istringstream in(
      "# header comment\n"
      "\n"
      "channels 2\n"
      "bandwidth 5\n"
      "item 0 1\n"
      "# middle comment\n"
      "item 1 0\n");
  const StoredAllocation loaded = load_allocation(in, db);
  EXPECT_EQ(loaded.allocation.channel_of(0), 1u);
  EXPECT_EQ(loaded.allocation.channel_of(1), 0u);
}

TEST(AllocationIo, DetectsMissingAssignment) {
  const Database db({1.0, 2.0}, {0.5, 0.5});
  std::istringstream in("channels 2\nbandwidth 5\nitem 0 0\n");
  EXPECT_THROW(load_allocation(in, db), std::runtime_error);
}

TEST(AllocationIo, DetectsDuplicateAssignment) {
  const Database db({1.0, 2.0}, {0.5, 0.5});
  std::istringstream in(
      "channels 2\nbandwidth 5\nitem 0 0\nitem 0 1\nitem 1 0\n");
  EXPECT_THROW(load_allocation(in, db), std::runtime_error);
}

TEST(AllocationIo, DetectsOutOfRangeChannelAndItem) {
  const Database db({1.0, 2.0}, {0.5, 0.5});
  {
    std::istringstream in("channels 2\nbandwidth 5\nitem 0 7\nitem 1 0\n");
    EXPECT_THROW(load_allocation(in, db), std::runtime_error);
  }
  {
    std::istringstream in("channels 2\nbandwidth 5\nitem 9 0\nitem 1 0\n");
    EXPECT_THROW(load_allocation(in, db), std::runtime_error);
  }
}

TEST(AllocationIo, RequiresHeaderBeforeItems) {
  const Database db({1.0}, {1.0});
  std::istringstream in("item 0 0\nchannels 1\nbandwidth 5\n");
  EXPECT_THROW(load_allocation(in, db), std::runtime_error);
}

TEST(AllocationIo, RejectsUnknownKeywordAndBadValues) {
  const Database one({1.0}, {1.0});
  const Database two({1.0, 2.0}, {0.5, 0.5});
  // Each file fails on the line given next to it. The channel counts cover
  // what a narrowing or unsigned parse would let through: 2^32 + 1 wraps to
  // 1 channel, 2^32 to 0, 12345678901 to about 3.8e9, and "-1" to 2^64 - 1.
  // A count above N = 1 would leave a channel empty. The two-item files
  // would load as a prefix of a line (item 0 onto channel 1, K = 2,
  // b = 5), or, for the second 'channels', fail unnumbered in the
  // Allocation constructor, if the loader ignored the rest of a line or
  // read a header line twice.
  const struct {
    const Database& db;
    const char* text;
    const char* line;
  } cases[] = {
      {one, "wibble 3\n", "line 1"},
      {one, "# v1\nchannels 0\n", "line 2"},
      {one, "# v1\nchannels 4294967297\nbandwidth 5\nitem 0 0\n", "line 2"},
      {one, "# v1\nchannels 4294967296\nbandwidth 5\nitem 0 0\n", "line 2"},
      {one, "# v1\nchannels 12345678901\nbandwidth 5\nitem 0 0\n", "line 2"},
      {one, "# v1\nchannels -1\nbandwidth 5\nitem 0 0\n", "line 2"},
      {one, "# v1\nchannels 2\nbandwidth 5\nitem 0 0\n", "line 2"},
      {one, "channels 1\nbandwidth -2\nitem 0 0\n", "line 2"},
      {one, "channels 1\nbandwidth 5\nitem -1 0\n", "line 3"},
      {one, "channels 1\nbandwidth 5\nitem 0 -1\n", "line 3"},
      {one, "channels 1\nbandwidth 5\nitem 4294967296 0\n", "line 3"},
      {one, "channels 1\nbandwidth 5\nitem 0 4294967296\n", "line 3"},
      {two, "channels 2\nbandwidth 5\nitem 0 1.9\nitem 1 0\n", "line 3"},
      {two, "channels 2.7\nbandwidth 5\nitem 0 1\nitem 1 0\n", "line 1"},
      {two, "channels 2\nbandwidth 5x\nitem 0 1\nitem 1 0\n", "line 2"},
      {two, "channels 2\nbandwidth 5\nitem 0 1\nitem 1 0\nchannels 1\n", "line 5"},
      {two, "channels 2\nbandwidth 5\nbandwidth 6\nitem 0 1\nitem 1 0\n", "line 3"},
      {two, "channels 2 2\nbandwidth 5\nitem 0 1\nitem 1 0\n", "line 1"},
      {two, "channels 2\nbandwidth 5\nitem 0 1 0\nitem 1 0\n", "line 3"},
  };
  for (const auto& c : cases) {
    std::istringstream in(c.text);
    try {
      load_allocation(in, c.db);
      ADD_FAILURE() << "accepted: " << c.text;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(c.line), std::string::npos)
          << c.text << " -> " << e.what();
    }
  }
}

TEST(AllocationIo, ErrorsCarryLineNumbers) {
  const Database db({1.0}, {1.0});
  std::istringstream in("channels 1\nbandwidth 5\nitem zero 0\n");
  try {
    load_allocation(in, db);
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos) << e.what();
  }
}

}  // namespace
}  // namespace dbs
