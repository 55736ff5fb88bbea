#include "model/allocation_io.h"

#include <cstdint>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/check.h"

namespace dbs {
namespace {

[[noreturn]] void fail(std::size_t line_number, const std::string& why) {
  std::ostringstream os;
  os << "allocation line " << line_number << ": " << why;
  throw std::runtime_error(os.str());
}

/// Fails unless `fields` holds nothing past the values already read, so
/// "item 0 1.9" or "bandwidth 5x" cannot load as a prefix of the line.
void expect_line_end(std::istringstream& fields, std::size_t line_number) {
  std::string extra;
  if (fields >> extra) fail(line_number, "unexpected '" + extra + "' after the values");
}

}  // namespace

void store_allocation(std::ostream& out, const Allocation& alloc, double bandwidth) {
  DBS_CHECK(bandwidth > 0.0);
  out << "# dbs-allocation v1\n";
  out << "channels " << alloc.channels() << '\n';
  const std::streamsize saved_precision =
      out.precision(std::numeric_limits<double>::max_digits10);
  out << "bandwidth " << bandwidth << '\n';
  out.precision(saved_precision);
  for (ItemId id = 0; id < alloc.items(); ++id) {
    out << "item " << id << ' ' << alloc.channel_of(id) << '\n';
  }
}

StoredAllocation load_allocation(std::istream& in, const Database& db) {
  // dbs-lint: contract delegated to per-line fail() parse validation below,
  // plus the Allocation constructor's bounds re-check on construction.
  std::optional<ChannelId> channels;
  std::optional<double> bandwidth;
  std::vector<ChannelId> assignment(db.size(), 0);
  std::vector<bool> seen(db.size(), false);

  std::string line;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    std::istringstream fields(line);
    std::string keyword;
    if (!(fields >> keyword) || keyword.front() == '#') continue;

    if (keyword == "channels") {
      // A second count would re-bound the channels of items already read.
      if (channels.has_value()) fail(line_number, "repeated 'channels'");
      // Signed, so "-1" is rejected instead of wrapping to 2^64 - 1, and
      // range-checked (1 ≤ K ≤ N) before the narrowing cast to ChannelId.
      std::int64_t value = 0;
      if (!(fields >> value) || value < 1 ||
          static_cast<std::size_t>(value) > db.size()) {
        fail(line_number,
             "bad channel count (need 1.." + std::to_string(db.size()) + ")");
      }
      channels = static_cast<ChannelId>(value);
    } else if (keyword == "bandwidth") {
      if (bandwidth.has_value()) fail(line_number, "repeated 'bandwidth'");
      double value = 0.0;
      if (!(fields >> value) || value <= 0.0) fail(line_number, "bad bandwidth");
      bandwidth = value;
    } else if (keyword == "item") {
      if (!channels.has_value()) fail(line_number, "'item' before 'channels'");
      std::int64_t id = 0;
      std::int64_t channel = 0;
      if (!(fields >> id >> channel)) fail(line_number, "expected 'item ID CHANNEL'");
      if (id < 0 || static_cast<std::size_t>(id) >= db.size()) {
        fail(line_number, "unknown item id " + std::to_string(id));
      }
      if (channel < 0 || channel >= *channels) {
        fail(line_number, "channel " + std::to_string(channel) + " out of range");
      }
      if (seen[id]) fail(line_number, "item " + std::to_string(id) + " assigned twice");
      seen[id] = true;
      assignment[id] = static_cast<ChannelId>(channel);
    } else {
      fail(line_number, "unknown keyword '" + keyword + "'");
    }
    expect_line_end(fields, line_number);
  }

  if (!channels.has_value()) throw std::runtime_error("allocation: missing 'channels'");
  if (!bandwidth.has_value()) throw std::runtime_error("allocation: missing 'bandwidth'");
  for (ItemId id = 0; id < db.size(); ++id) {
    if (!seen[id]) {
      throw std::runtime_error("allocation: item " + std::to_string(id) +
                               " never assigned");
    }
  }
  return StoredAllocation{Allocation(db, *channels, std::move(assignment)), *bandwidth};
}

}  // namespace dbs
