// Candidate index for CDS's best-improvement move search.
//
// Eq. (4) factors as Δc(x: p→q) = C_x − s_q with
//     C_x = f_x·Z_p + z_x·F_p − 2 f_x z_x   (home potential, q-independent)
//     s_q = f_x·Z_q + z_x·F_q               (target load, home-independent)
// so item x's best target is simply argmin_q s_q — independent of where x
// currently lives. When that argmin IS x's home channel, no move can improve
// (Δc ≤ −2 f_x z_x < 0), so the item drops out of the search entirely.
//
// s_q / z_x = (f_x/z_x)·Z_q + F_q depends on the item only through its
// benefit ratio, so along Database::benefit_order() (ratio descending) the
// argmin walks the lower hull of the channel points (Z_q, F_q) from left to
// right: the target is piecewise constant, one piece per hull vertex. The
// index keeps that piece map (O(K) entries, never a per-item target) and,
// indexed by rank (an item's position in the benefit order):
//   * gain: Δc of the item's move to its piece's channel, computed with
//     Allocation::move_gain's exact Eq. 4 arithmetic, or −∞ when that
//     channel is the item's home;
//   * home: the item's channel, kept in step with the allocation by apply();
// plus one rank span [lo, hi) per channel that holds all of its members,
// and one gain maximum per block of ranks. f and z come from the Database's
// rank-major columns. apply() reuses the rank of the move best_move() just
// returned and finds any other moved item's rank by a linear search.
//
// After a move p→q the fold rebuilds the hull, finds each piece's start with
// one binary search per hull edge whose inputs changed (the others reuse
// their last result), and merges the old and new piece maps: a
// gain is recomputed only where the piece channel changed or is p or q (the
// stale segments: whole rank ranges, streamed), and for the items living on
// p or q (found by streaming the home column over p's and q's spans). Each
// stale gain is computed once: the span walks step over the stale segments,
// whose refresh already covered the members there. Every other gain is
// still exact, so the fold does no O(N) pass. Spans stay exact: apply()
// steps p's ends inward past the moved rank. Selection refreshes the maxima
// of the blocks the fold touched, then scans the block maxima. Every buffer
// a fold uses is sized at construction, so a fold allocates nothing. See
// docs/ARCHITECTURE.md §5 for the exactness argument.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/cds.h"
#include "model/allocation.h"

namespace dbs {

/// \brief Incrementally maintained best-target index for CDS.
///
/// The referenced Allocation must outlive the index, and every mutation of
/// it between best_move() calls must go through apply() — an out-of-band
/// Allocation::move() silently invalidates the cached gains.
class CandidateIndex {
 public:
  /// \brief Builds the piece map, the gain column and the block maxima for
  /// the current allocation (O(N + K log N + K log K)). Requires at least
  /// two channels.
  explicit CandidateIndex(Allocation& alloc);

  /// \brief Folds any pending move into the index and returns the move the
  /// brute-force best_move(alloc) returns whenever that move improves
  /// (gain > 0): same item, same target, bit-identical gain, with ties
  /// resolved to the smallest item id and per item to the smallest-load
  /// (then smallest-id) target. At a local optimum it returns some move with
  /// gain ≤ 0 (possibly −∞), not necessarily the scan's: an item whose
  /// min-load channel is its home caches −∞, since none of its moves
  /// improves.
  CdsMove best_move();

  /// \brief Applies `move` to the allocation and records its two touched
  /// channels for the next best_move() fold. The move best_move() just
  /// returned reuses the rank its selection found; any other move pays an
  /// O(N) search of the benefit order for its item's rank.
  void apply(const CdsMove& move);

  /// \brief Eq. 4 gains computed so far (one per item whose target is not
  /// its home at construction, then one per refreshed item per fold).
  /// Mirrors CdsStats::moves_evaluated.
  std::size_t moves_evaluated() const { return moves_evaluated_; }

  /// \brief Ranks whose target a fold re-derived (the ranks whose piece
  /// channel changed or is a touched channel).
  /// Mirrors CdsStats::index_repairs.
  std::size_t repairs() const { return repairs_; }

  /// \brief Span ranks read to find the touched channels' members: the
  /// folds' walks outside the stale segments, plus the ranks apply() steps
  /// past to tighten the source channel's span. Mirrors
  /// CdsStats::span_ranks.
  std::size_t span_ranks() const { return span_ranks_; }

 private:
  /// The min-load target as a function of rank: piece i covers ranks
  /// [start[i], start[i + 1]) and targets channel chan[i]. Pieces are
  /// non-empty, and start.back() is the item count.
  struct PieceMap {
    std::vector<std::size_t> start;
    std::vector<ChannelId> chan;

    /// \brief The channel whose piece holds rank `pos`.
    ChannelId target_at(std::size_t pos) const;
  };

  /// Ranks [lo, hi): a channel's first member and last member + 1, or
  /// lo ≥ hi when it has none. Also a fold's stale segments, merged.
  struct Span {
    std::uint32_t lo;
    std::uint32_t hi;
  };

  /// Eq. 4's channel differences for a move from a home to a target:
  /// Z_home − Z_to and F_home − F_to.
  struct Difference {
    double size;
    double freq;
  };

  /// Every input of a hull edge's boundary search besides the item columns:
  /// the edge's right channel (the left one indexes the memo), the bits of
  /// both channels' (Z, F), and the start rank.
  struct EdgeKey {
    ChannelId right;
    std::uint64_t left_z;
    std::uint64_t left_f;
    std::uint64_t right_z;
    std::uint64_t right_f;
    std::size_t from;
    bool operator==(const EdgeKey&) const = default;
  };

  struct EdgeSearch {
    EdgeKey key;
    std::size_t end;
  };

  /// \brief Rebuilds hull_ from the current channel aggregates.
  void build_hull();

  /// \brief Derives the piece map of hull_ into `out`.
  void build_pieces(PieceMap& out);

  /// \brief First rank in [from, N) at which channel `b` beats `a` as a
  /// target: lower load, or equal load and a smaller id. Reuses the previous
  /// search of the edge leaving `a` when none of its inputs changed.
  std::size_t first_beaten(ChannelId a, ChannelId b, std::size_t from);

  /// \brief Recomputes the gains of ranks [lo, hi) for target `to` and
  /// counts those whose home is not `to`.
  void refresh_range(std::size_t lo, std::size_t hi, ChannelId to);

  /// \brief Queues block `block` for a fresh maximum at the next selection.
  void mark_dirty(std::size_t block);

  /// \brief Folds the pending move p→q into the piece map and the gains.
  void fold();

  /// \brief Recomputes the gains of channel c's members outside the stale
  /// segments, walking its span one block at a time.
  void refresh_members(ChannelId c);

  Allocation& alloc_;
  std::span<const ItemId> order_;      // Database::benefit_order(): rank → id
  std::span<const double> item_freq_;  // Database::benefit_freqs(): f by rank
  std::span<const double> item_size_;  // Database::benefit_sizes(): z by rank
  std::span<const double> chan_freq_;  // Allocation's F column (stable storage)
  std::span<const double> chan_size_;  // Allocation's Z column (stable storage)

  std::vector<double> gain_;       // by rank: Δc of the move to the piece, or −∞
  std::vector<ChannelId> home_;    // by rank
  std::vector<Span> spans_;        // by channel
  std::vector<double> block_max_;  // max gain of each block of ranks

  PieceMap pieces_;
  PieceMap old_pieces_;  // fold scratch: the map before the pending move

  // Fold scratch, sized at construction so that a fold allocates nothing.
  std::vector<ChannelId> by_zf_;        // channel ids sorted by (Z, F, id)
  std::vector<ChannelId> hull_;         // lower-hull vertices by ascending Z
  std::vector<std::uint8_t> dirty_;     // by block: queued in dirty_blocks_
  std::vector<std::uint32_t> dirty_blocks_;  // blocks whose max is stale
  std::vector<Difference> diff_;        // by home: refresh_range's table
  std::vector<EdgeSearch> edges_;       // by left vertex: the last search
  std::vector<Span> stale_;             // the fold's stale runs, then {N, N}

  std::uint32_t selected_ = 0;  // rank of the move best_move() last returned
  bool pending_ = false;
  ChannelId touched_p_ = 0;
  ChannelId touched_q_ = 0;
  std::size_t moves_evaluated_ = 0;
  std::size_t repairs_ = 0;
  std::size_t span_ranks_ = 0;
};

}  // namespace dbs
