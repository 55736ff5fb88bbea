// Persistence for channel allocations: a small line-oriented text format so
// an operator can compute a program offline, store it, and load it into the
// broadcast server later (or diff two programs in code review).
//
//   # dbs-allocation v1
//   channels 4
//   bandwidth 10
//   item 0 2        <- item 0 broadcasts on channel 2
//   ...
//
// Lines starting with '#' and blank lines are ignored. A line holds its
// keyword's values and nothing else; `channels` and `bandwidth` appear once
// each. Every item of the database must be assigned exactly once.
#pragma once

#include <istream>
#include <ostream>

#include "model/allocation.h"
#include "model/database.h"

namespace dbs {

/// An allocation plus the bandwidth it was planned for.
struct StoredAllocation {
  Allocation allocation;
  double bandwidth = 0.0;
};

/// \brief Writes the allocation (and its planning bandwidth) to `out`.
void store_allocation(std::ostream& out, const Allocation& alloc, double bandwidth);

/// \brief Parses an allocation against `db`. Throws std::runtime_error with a line
/// number on malformed input (including anything after a line's values), a
/// repeated `channels` or `bandwidth` line, a channel count outside 1..N,
/// unknown items, out-of-range channels, missing or duplicate assignments,
/// or an item-count mismatch with `db`.
StoredAllocation load_allocation(std::istream& in, const Database& db);

}  // namespace dbs
