// Contiguous partitions of an ordered item sequence (paper §3.1). The
// dimension reduction orders the items, so every group is a contiguous run
// of that order, and PrefixSums prices any run in O(1). Procedure Partition
// finds the split point p of one run that minimizes cost(left) +
// cost(right): with prefix sums the scan is O(n), and a lower bound per
// block of 256 split points skips the blocks that cannot win
// (docs/ARCHITECTURE.md §4). DRP splits runs with it; OrderedDp and VF^K
// find the exact K-run optimum over the same sums (baselines/ordered_dp.h).
// Over the benefit order they stream the Database's rank-major columns
// instead of gathering by id.
//
// PrefixSums invariants (checked by tests/partition_test.cc):
//   * freq.size() == size.size() == n + 1 for an order of n items;
//   * freq[0] == size[0] == 0;
//   * freq[i+1] == freq[i] + f(order[i]) evaluated left to right, so the
//     stored values are bit-reproducible for a fixed order — every slice
//     aggregate F = freq[b] − freq[a] is therefore deterministic too;
//   * identically for size.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "model/database.h"

namespace dbs {

/// \brief Prefix aggregates over an ordered item sequence.
///
/// prefix_freq[i] and prefix_size[i] are the sums over the first i items, so
/// the aggregates of the slice [a, b) are prefix[b] − prefix[a]. Shared by
/// DRP's groups, so each split scan needs no per-group recomputation.
struct PrefixSums {
  std::vector<double> freq;  ///< size n+1, freq[0] = 0
  std::vector<double> size;  ///< size n+1, size[0] = 0

  /// \brief Empty sums covering no items (freq == size == {0}).
  PrefixSums() : freq(1, 0.0), size(1, 0.0) {}

  /// \brief Builds prefix sums over `order`, a permutation (or subset) of
  /// item ids of `db`, accumulating strictly left to right.
  PrefixSums(const Database& db, std::span<const ItemId> order);

  /// \brief Builds prefix sums over columns already in order: item i of the
  /// order has frequency freqs[i] and size sizes[i]. Accumulates strictly
  /// left to right, so over Database::benefit_freqs() and benefit_sizes()
  /// it is bit-identical to the constructor above over benefit_order().
  PrefixSums(std::span<const double> freqs, std::span<const double> sizes);

  /// \brief Aggregate frequency of slice [a, b).
  double freq_of(std::size_t a, std::size_t b) const { return freq[b] - freq[a]; }
  /// \brief Aggregate size of slice [a, b).
  double size_of(std::size_t a, std::size_t b) const { return size[b] - size[a]; }
  /// \brief Group cost F·Z of slice [a, b) (Definition 1).
  double cost_of(std::size_t a, std::size_t b) const {
    return freq_of(a, b) * size_of(a, b);
  }

  /// \brief Number of items covered (one less than the prefix length).
  std::size_t items() const { return freq.empty() ? 0 : freq.size() - 1; }
};

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
