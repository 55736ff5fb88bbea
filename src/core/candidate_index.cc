#include "core/candidate_index.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <utility>

#include "common/check.h"
#include "model/database.h"

namespace dbs {
namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();
constexpr ItemId kNil = std::numeric_limits<ItemId>::max();

}  // namespace

ChannelId CandidateIndex::PieceMap::target_at(std::size_t pos) const {
  // Branchless upper-bound search: the member refresh calls this once per
  // item, and its comparisons go either way from item to item.
  const std::size_t* base = start.data();
  std::size_t len = chan.size();
  while (len > 1) {
    const std::size_t half = len / 2;
    base = base[half] <= pos ? base + half : base;
    len -= half;
  }
  return chan[static_cast<std::size_t>(base - start.data())];
}

CandidateIndex::CandidateIndex(Allocation& alloc)
    : alloc_(alloc),
      order_(alloc.database().benefit_order()),
      item_freq_(alloc.database().freqs()),
      item_size_(alloc.database().sizes()),
      chan_freq_(alloc.channel_freqs()),
      chan_size_(alloc.channel_sizes()),
      gain_(alloc.items()),
      rank_(alloc.items()),
      head_(alloc.channels(), kNil),
      next_(alloc.items()),
      prev_(alloc.items()),
      by_zf_(alloc.channels()) {
  DBS_CHECK_MSG(alloc_.channels() >= 2,
                "the candidate index needs at least two channels");
  const std::size_t k = alloc_.channels();
  const std::size_t n = alloc_.items();
  std::iota(by_zf_.begin(), by_zf_.end(), 0);
  hull_.reserve(k);
  for (PieceMap* map : {&pieces_, &old_pieces_}) {
    map->start.reserve(k + 1);
    map->chan.reserve(k);
  }
  for (std::size_t pos = 0; pos < n; ++pos) {
    rank_[order_[pos]] = static_cast<std::uint32_t>(pos);
  }
  const std::vector<ChannelId>& home = alloc_.assignment();
  for (ItemId y = 0; y < n; ++y) link(y, home[y]);

  build_hull();
  build_pieces(pieces_);
  for (std::size_t i = 0; i < pieces_.chan.size(); ++i) {
    for (std::size_t pos = pieces_.start[i]; pos < pieces_.start[i + 1]; ++pos) {
      const ItemId y = order_[pos];
      refresh_gain(y, home[y], pieces_.chan[i]);
    }
  }
}

void CandidateIndex::link(ItemId y, ChannelId c) {
  prev_[y] = kNil;
  next_[y] = head_[c];
  if (head_[c] != kNil) prev_[head_[c]] = y;
  head_[c] = y;
}

void CandidateIndex::unlink(ItemId y, ChannelId c) {
  if (prev_[y] != kNil) {
    next_[prev_[y]] = next_[y];
  } else {
    head_[c] = next_[y];
  }
  if (next_[y] != kNil) prev_[next_[y]] = prev_[y];
}

void CandidateIndex::build_hull() {
  // The order is total (ids break ties), so re-sorting the previous fold's
  // permutation gives the same result as sorting from scratch.
  std::sort(by_zf_.begin(), by_zf_.end(), [&](ChannelId a, ChannelId b) {
    if (chan_size_[a] != chan_size_[b]) return chan_size_[a] < chan_size_[b];
    if (chan_freq_[a] != chan_freq_[b]) return chan_freq_[a] < chan_freq_[b];
    return a < b;
  });
  // Andrew's monotone chain over the deduplicated channel points. Channels
  // with bit-identical aggregates (e.g. several empty channels) are one
  // point, represented by its smallest id — the one the brute-force scan's
  // tie-break picks. Collinear points are dropped: they only ever tie with
  // the chain, never beat it.
  auto cross = [&](ChannelId o, ChannelId a, ChannelId b) {
    return (chan_size_[a] - chan_size_[o]) * (chan_freq_[b] - chan_freq_[o]) -
           (chan_freq_[a] - chan_freq_[o]) * (chan_size_[b] - chan_size_[o]);
  };
  hull_.clear();
  for (std::size_t i = 0; i < by_zf_.size(); ++i) {
    const ChannelId c = by_zf_[i];
    if (i > 0 && chan_size_[c] == chan_size_[by_zf_[i - 1]] &&
        chan_freq_[c] == chan_freq_[by_zf_[i - 1]]) {
      continue;
    }
    while (hull_.size() >= 2 && cross(hull_[hull_.size() - 2], hull_.back(), c) <= 0.0) {
      hull_.pop_back();
    }
    hull_.push_back(c);
  }
}

std::size_t CandidateIndex::first_beaten(ChannelId a, ChannelId b,
                                         std::size_t from) const {
  // Along the benefit order f/z falls, so the load difference
  // s_b − s_a = z·((f/z)·ΔZ + ΔF) of a hull edge (ΔZ > 0) changes sign at
  // most once: "b beats a" is a monotone predicate over positions, and its
  // first true position is a binary search away. Loads are compared as
  // f·Z + z·F: an algebraically equal form rounds differently near a
  // threshold and would move the seeded trajectories.
  const double za = chan_size_[a];
  const double fa = chan_freq_[a];
  const double zb = chan_size_[b];
  const double fb = chan_freq_[b];
  const bool b_wins_ties = b < a;
  const auto first = std::partition_point(
      order_.begin() + static_cast<std::ptrdiff_t>(from), order_.end(), [&](ItemId y) {
        const double f = item_freq_[y];
        const double z = item_size_[y];
        const double sa = f * za + z * fa;
        const double sb = f * zb + z * fb;
        return !(sb < sa || (b_wins_ties && sb == sa));
      });
  return static_cast<std::size_t>(first - order_.begin());
}

void CandidateIndex::build_pieces(PieceMap& out) const {
  // Vertex j owns the positions from where it beat vertex j − 1 up to where
  // vertex j + 1 beats it. Starting each search at the previous boundary
  // keeps the boundaries ascending even where rounding blurs a threshold.
  const std::size_t n = alloc_.items();
  out.start.clear();
  out.chan.clear();
  std::size_t from = 0;
  for (std::size_t j = 0; j < hull_.size() && from < n; ++j) {
    const std::size_t end =
        j + 1 < hull_.size() ? first_beaten(hull_[j], hull_[j + 1], from) : n;
    if (end > from) {
      out.start.push_back(from);
      out.chan.push_back(hull_[j]);
      from = end;
    }
  }
  out.start.push_back(n);
}

void CandidateIndex::refresh_gain(ItemId y, ChannelId home, ChannelId to) {
  const double f = item_freq_[y];
  const double z = item_size_[y];
  // Same expression in the same order as Allocation::move_gain (Eq. 4), so
  // the cached gain is bit-identical to what best_move(alloc) computes. It
  // is computed even when the target is home (measured faster than an early
  // return in the refresh loops) and then replaced: with the home as the
  // min-load channel every move has Δc = C_y − s_q ≤ C_y − s_home =
  // −2 f_y z_y < 0, so the item is never selectable.
  const double gain = f * (chan_size_[home] - chan_size_[to]) +
                      z * (chan_freq_[home] - chan_freq_[to]) - 2.0 * f * z;
  const bool at_home = to == home;
  gain_[y] = at_home ? kNegInf : gain;
  moves_evaluated_ += at_home ? 0 : 1;
}

void CandidateIndex::fold() {
  const ChannelId p = touched_p_;
  const ChannelId q = touched_q_;
  const std::vector<ChannelId>& home = alloc_.assignment();
  build_hull();
  std::swap(pieces_, old_pieces_);
  build_pieces(pieces_);

  // Walk the segments on which neither map changes piece. A gain depends on
  // the item's home and target aggregates only, so it is stale exactly when
  // the target changed, the target is p or q, or the home is p or q. The
  // first two are whole segments; items on p or q follow from their lists
  // (skipped here, so each gain is computed once).
  const std::size_t n = alloc_.items();
  std::size_t i = 0;
  std::size_t j = 0;
  for (std::size_t pos = 0; pos < n;) {
    const std::size_t end = std::min(old_pieces_.start[i + 1], pieces_.start[j + 1]);
    const ChannelId to = pieces_.chan[j];
    if (old_pieces_.chan[i] != to || to == p || to == q) {
      repairs_ += end - pos;
      for (; pos < end; ++pos) {
        const ItemId y = order_[pos];
        if (home[y] != p && home[y] != q) refresh_gain(y, home[y], to);
      }
    }
    pos = end;
    i += old_pieces_.start[i + 1] == end;
    j += pieces_.start[j + 1] == end;
  }
  for (const ChannelId c : {p, q}) {
    for (ItemId y = head_[c]; y != kNil; y = next_[y]) {
      refresh_gain(y, c, pieces_.target_at(rank_[y]));
    }
    if (p == q) break;
  }
}

CdsMove CandidateIndex::best_move() {
  if (pending_) {
    fold();
    pending_ = false;
  }
  // Selection is a pure argmax over the gain column, in two passes: four
  // independent running maxima (no data-dependent branch, so the pass runs
  // at load bandwidth), then the first item holding that maximum — the
  // smallest item id, the tie-break best_move(alloc)'s ascending-id
  // strict-> loop induces.
  const std::size_t n = alloc_.items();
  const double* g = gain_.data();
  double lane[4] = {g[0], g[0], g[0], g[0]};
  std::size_t y = 0;
  for (; y + 4 <= n; y += 4) {
    for (std::size_t l = 0; l < 4; ++l) lane[l] = std::max(lane[l], g[y + l]);
  }
  for (; y < n; ++y) lane[0] = std::max(lane[0], g[y]);
  const double top = std::max({lane[0], lane[1], lane[2], lane[3]});
  const ItemId best = static_cast<ItemId>(std::find(g, g + n, top) - g);
  return CdsMove{best, alloc_.assignment()[best], pieces_.target_at(rank_[best]),
                 g[best]};
}

void CandidateIndex::apply(const CdsMove& move) {
  DBS_CHECK_MSG(!pending_, "apply() calls must be interleaved with best_move()");
  const ChannelId from = alloc_.channel_of(move.item);
  alloc_.move(move.item, move.to);
  unlink(move.item, from);
  link(move.item, move.to);
  touched_p_ = from;
  touched_q_ = move.to;
  pending_ = true;
}

}  // namespace dbs
