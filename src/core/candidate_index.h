// Per-item candidate index for CDS's best-improvement move search.
//
// Eq. (4) factors as Δc(x: p→q) = C_x − s_q with
//     C_x = f_x·Z_p + z_x·F_p − 2 f_x z_x   (home potential, q-independent)
//     s_q = f_x·Z_q + z_x·F_q               (target load, home-independent)
// so item x's best target is simply argmin_q s_q — independent of where x
// currently lives. When that argmin IS x's home channel, no move can improve
// (Δc ≤ −2 f_x z_x < 0), so the item drops out of the search entirely.
//
// The index holds three columnar caches, all indexed by ItemId:
//   * (c1, s1): the min-load channel and its load;
//   * (c2, s2): the runner-up channel and its load;
//   * gain: Δc of the item's candidate move (x → c1), computed with
//     Allocation::move_gain's exact Eq. 4 arithmetic, or −∞ when c1 is home.
//
// Loads are linear functionals over the channel points (Z_c, F_c), so the
// exact min-2 is found on two convex-hull onion layers with an O(log K)
// binary search per item — never a brute O(K) channel scan. After a move
// p→q one fused O(N) sequential pass refreshes the caches: an item is
// disturbed only if a cached slot or its home is a touched channel, or a
// touched channel's new load now beats its runner-up; disturbed pairs are
// re-queried against a freshly built hull (O(K log K) per iteration,
// negligible), everything else keeps bit-identical cached state. The
// selection itself is then a pure argmax over the gain column. The hull is
// rebuilt in scratch sized at construction, so a fold allocates nothing. See
// docs/ARCHITECTURE.md §5 for the exactness argument.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/cds.h"
#include "model/allocation.h"

namespace dbs {

/// \brief Incrementally maintained per-item best-target index for CDS.
///
/// The referenced Allocation must outlive the index, and every mutation of
/// it between best_move() calls must go through apply() — an out-of-band
/// Allocation::move() silently invalidates the cached columns.
class CandidateIndex {
 public:
  /// \brief Builds the per-item caches for the current allocation
  /// (O(N log K)). Requires at least two channels.
  explicit CandidateIndex(Allocation& alloc);

  /// \brief Folds any pending move into the caches and returns the best
  /// single-item move (gain may be ≤ 0 at a local optimum). Ties resolve
  /// like the brute-force best_move(alloc): smallest item id, and per item
  /// the smallest-load (then smallest-id) target.
  CdsMove best_move();

  /// \brief Applies `move` to the allocation and records its two touched
  /// channels for the next best_move() fold.
  void apply(const CdsMove& move);

  /// \brief Candidate gains computed so far (one per item at construction,
  /// plus one per disturbed item per fold pass). Mirrors
  /// CdsStats::moves_evaluated.
  std::size_t moves_evaluated() const { return moves_evaluated_; }

  /// \brief Disturbed pairs re-queried against the hull. Mirrors
  /// CdsStats::index_repairs.
  std::size_t repairs() const { return repairs_; }

 private:
  /// One deduplicated channel point (Z_c, F_c). Channels with bit-identical
  /// aggregates (e.g. several empty channels) collapse into one point that
  /// remembers its two smallest channel ids, so load ties still resolve to
  /// the smallest id exactly like the brute-force scan.
  struct Point {
    double z = 0.0;      // Z_c (x axis)
    double f = 0.0;      // F_c (y axis)
    ChannelId id = 0;    // smallest channel with this point
    ChannelId dup = 0;   // second-smallest, or kNoDup
  };

  /// One hull layer: a lower-hull chain over the deduplicated channel
  /// points, plus per-edge deltas for the binary search.
  struct Layer {
    std::vector<double> z;          // Z of each chain vertex, ascending
    std::vector<double> f;          // F of each chain vertex
    std::vector<ChannelId> id;      // smallest channel id of the vertex
    std::vector<ChannelId> dup;     // second-smallest id (kNoDup if unique)
    bool empty() const { return z.empty(); }
    std::size_t size() const { return z.size(); }

    /// \brief Reserves room for a chain over `k` points.
    void reserve(std::size_t k);

    /// \brief Replaces the chain with the lower hull of `pts`, which must be
    /// sorted by (z, f). Collinear points are dropped from the chain (they
    /// join the next layer).
    void assign_lower_hull(const std::vector<Point>& pts);
  };

  /// \brief Rebuilds the two onion layers from the current aggregates.
  void build_hull();

  /// \brief Recomputes item y's exact min-2 pair from the hull layers.
  void query_pair(ItemId y);

  /// \brief Refreshes item y's cached gain from its pair and home.
  void refresh_gain(ItemId y, ChannelId home);

  Allocation& alloc_;
  std::span<const double> item_freq_;
  std::span<const double> item_size_;
  std::span<const double> chan_freq_;  // Allocation's F column (stable storage)
  std::span<const double> chan_size_;  // Allocation's Z column (stable storage)

  std::vector<ChannelId> c1_;   // min-load channel per item
  std::vector<ChannelId> c2_;   // runner-up channel per item
  std::vector<double> s1_;      // load of c1
  std::vector<double> s2_;      // load of c2
  std::vector<double> gain_;    // Δc of the move to c1; −∞ when c1 == home

  Layer layer1_;
  Layer layer2_;

  // Fold scratch, sized at construction so that a fold allocates nothing.
  std::vector<ChannelId> by_zf_;   // channel ids sorted by (Z, F, id)
  std::vector<Point> points_;      // deduplicated channel points
  std::vector<Point> rest_;        // points_ minus layer 1's vertices
  std::vector<ItemId> attention_;  // disturbed items (at most N per fold)

  bool pending_ = false;
  ChannelId touched_p_ = 0;
  ChannelId touched_q_ = 0;
  std::size_t moves_evaluated_ = 0;
  std::size_t repairs_ = 0;
};

}  // namespace dbs
