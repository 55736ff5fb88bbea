// A channel allocation: the partition of the database into K channel groups.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "model/database.h"
#include "model/item.h"

namespace dbs {

/// Mutable partition of a Database's items into K disjoint channel groups.
///
/// Maintains per-channel aggregates incrementally:
///   F_i = Σ_{j ∈ D_i} f_j       (aggregate frequency, Definition 3)
///   Z_i = Σ_{j ∈ D_i} z_j       (aggregate size,      Definition 4)
///   P_i = Σ_{j ∈ D_i} f_j·z_j   (download term of W^(i), Eqs. 1-2)
/// so the paper's cost Σ F_i·Z_i, the Δc of a move (Eq. 4) and a channel's
/// waiting time are O(1).
///
/// Like the Database, the aggregates are stored columnar: channel_freqs()
/// and channel_sizes() expose F and Z as contiguous spans so CDS's move
/// search streams over them (docs/ARCHITECTURE.md §3). members() derives
/// every channel's id list from the assignment column in one pass.
///
/// The referenced Database must outlive the Allocation.
class Allocation {
 public:
  /// \brief Creates an allocation with every item assigned to channel 0.
  Allocation(const Database& db, ChannelId channels);

  /// \brief Creates an allocation from an explicit assignment vector
  /// (assignment[id] = channel). Checks bounds.
  Allocation(const Database& db, ChannelId channels,
             std::vector<ChannelId> assignment);

  /// \brief The catalogue this allocation partitions.
  const Database& database() const { return *db_; }
  /// \brief Number of channels K.
  ChannelId channels() const { return channels_; }
  /// \brief Number of items N.
  std::size_t items() const { return assignment_.size(); }

  /// \brief Channel currently holding item `id` (bounds-checked).
  ChannelId channel_of(ItemId id) const;
  /// \brief The assignment column, indexed by ItemId.
  const std::vector<ChannelId>& assignment() const { return assignment_; }

  /// \brief Aggregate frequency F_i of channel i.
  double freq_of(ChannelId c) const;
  /// \brief Aggregate size Z_i of channel i.
  double size_of(ChannelId c) const;
  /// \brief Number of items allocated to channel i (the paper's N_i).
  std::size_t count_of(ChannelId c) const;
  /// \brief Frequency-weighted size P_i = Σ f_j·z_j of channel i (named
  /// after Database::weighted_size()).
  double weighted_size_of(ChannelId c) const;

  /// \brief The aggregate-frequency column F, indexed by ChannelId.
  std::span<const double> channel_freqs() const { return freq_; }
  /// \brief The aggregate-size column Z, indexed by ChannelId.
  std::span<const double> channel_sizes() const { return size_; }
  /// \brief The item-count column N_i, indexed by ChannelId.
  std::span<const std::size_t> channel_counts() const { return count_; }

  /// \brief Moves item `id` to channel `to`, updating aggregates in O(1).
  /// Moving an item to its current channel is a no-op.
  void move(ItemId id, ChannelId to);

  /// \brief Per-channel cost F_i · Z_i (Definition 1 applied to the group).
  double channel_cost(ChannelId c) const;

  /// \brief Total cost Σ_i F_i·Z_i (Eq. 3) — the quantity every algorithm
  /// minimizes.
  double cost() const;

  /// \brief Recomputes cost from scratch, ignoring the incremental
  /// aggregates. Used by tests to confirm the incremental bookkeeping is
  /// exact.
  double cost_recomputed() const;

  /// \brief The Δc of moving item `id` to channel `to` (Eq. 4), without
  /// performing the move. Positive Δc means the move reduces total cost.
  double move_gain(ItemId id, ChannelId to) const;

  /// \brief Every channel's item ids, in ascending id order: members()[c]
  /// lists channel c (empty for an empty channel). One O(N + K) pass, so
  /// call it once before a channel loop and bind the result to a local —
  /// `for (ItemId id : alloc.members()[c])` iterates a destroyed temporary.
  std::vector<std::vector<ItemId>> members() const;

  /// \brief True iff every item is assigned to exactly one in-range channel
  /// and the cached aggregates match a from-scratch recomputation.
  bool validate(std::string* error = nullptr) const;

 private:
  // Test-only backdoor: lets validate()'s failure paths be exercised by
  // corrupting internal state in ways the public API forbids.
  friend struct AllocationTestPeer;

  const Database* db_;
  ChannelId channels_;
  std::vector<ChannelId> assignment_;
  std::vector<double> freq_;          // F_i per channel
  std::vector<double> size_;          // Z_i per channel
  std::vector<std::size_t> count_;    // N_i per channel
  std::vector<double> weighted_;      // P_i per channel
};

}  // namespace dbs
