// The broadcast data item: the unit the scheduler allocates to channels.
#pragma once

#include <cstdint>

namespace dbs {

/// Stable identifier of a data item within a Database (its original index).
using ItemId = std::uint32_t;

/// Index of a broadcast channel, 0-based (the paper's c_{i+1}).
using ChannelId = std::uint32_t;

/// A broadcast data item. In the diverse broadcasting environment each item
/// carries two features: its size z (in abstract size units) and its access
/// frequency f (probability mass; the database normalizes Σf = 1).
struct Item {
  ItemId id = 0;
  double size = 1.0;  ///< z_j, strictly positive
  double freq = 0.0;  ///< f_j, non-negative
};

/// \brief Items compare equal iff all fields match exactly (useful in
/// tests).
inline bool operator==(const Item& a, const Item& b) {
  return a.id == b.id && a.size == b.size && a.freq == b.freq;
}

}  // namespace dbs
