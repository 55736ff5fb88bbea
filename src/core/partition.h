// Procedure Partition (paper §3.1): given a group of items ordered by
// benefit ratio, find the contiguous split point p that minimizes
// cost(left) + cost(right). With prefix sums the scan is O(n), and a lower
// bound per block of 256 split points skips the blocks that cannot win
// (docs/ARCHITECTURE.md §4).
//
// PrefixSums itself now lives in model/prefix_sums.h (promoted in PR 7 so
// the Database can cache one over its benefit order); this header re-exports
// it for the split machinery and for existing includers.
#pragma once

#include <cstddef>

#include "model/database.h"
#include "model/prefix_sums.h"

namespace dbs {

/// \brief Result of splitting the slice [begin, end): the left part is
/// [begin, split), the right part is [split, end).
struct SplitResult {
  std::size_t split = 0;
  double left_cost = 0.0;
  double right_cost = 0.0;

  /// \brief Combined cost of the two parts.
  double total() const { return left_cost + right_cost; }
};

/// \brief Finds the split index p ∈ (begin, end) minimizing
/// cost([begin,p)) + cost([p,end)). Requires begin + 2 ≤ end ≤ items().
/// Ties resolve to the smallest p, making the procedure deterministic, and
/// the result is bit-identical to a plain scan over every p.
SplitResult best_split(const PrefixSums& sums, std::size_t begin, std::size_t end);

}  // namespace dbs
