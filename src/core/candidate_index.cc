#include "core/candidate_index.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <numeric>
#include <utility>

#include "common/check.h"
#include "model/database.h"

namespace dbs {
namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

// Where an empty channel's span starts: past every rank, so widening it to
// one rank gives exactly that rank.
constexpr std::uint32_t kNoRank = std::numeric_limits<std::uint32_t>::max();

// Ranks per block of the gain column. Selection scans N / kBlockRanks block
// maxima and rescans only the blocks a fold wrote to, kBlockRanks gains each.
constexpr std::size_t kBlockRanks = 256;

// Two gains side by side, compared and selected lane by lane with GCC's and
// Clang's vector extension: SSE2 code on any x86-64, no target flag needed.
using Pair = double __attribute__((vector_size(2 * sizeof(double))));

Pair load_pair(const double* g) {
  Pair pair;
  std::memcpy(&pair, g, sizeof pair);
  return pair;
}

Pair pair_max(Pair a, Pair b) { return a < b ? b : a; }

/// The largest of g[0, len), or −∞ when len is 0. Four independent running
/// maxima of two lanes each keep the loop free of data-dependent branches, so
/// it runs at load bandwidth.
double max_of(const double* g, std::size_t len) {
  const Pair none = {kNegInf, kNegInf};
  Pair lane[4] = {none, none, none, none};
  std::size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    for (std::size_t l = 0; l < 4; ++l) lane[l] = pair_max(lane[l], load_pair(g + i + 2 * l));
  }
  for (; i + 2 <= len; i += 2) lane[0] = pair_max(lane[0], load_pair(g + i));
  const Pair top = pair_max(pair_max(lane[0], lane[1]), pair_max(lane[2], lane[3]));
  return std::max({top[0], top[1], i < len ? g[i] : kNegInf});
}

}  // namespace

ChannelId CandidateIndex::PieceMap::target_at(std::size_t pos) const {
  const auto after = std::ranges::upper_bound(start, pos);
  return chan[static_cast<std::size_t>(after - start.begin()) - 1];
}

CandidateIndex::CandidateIndex(Allocation& alloc)
    : alloc_(alloc),
      order_(alloc.database().benefit_order()),
      item_freq_(alloc.database().benefit_freqs()),
      item_size_(alloc.database().benefit_sizes()),
      chan_freq_(alloc.channel_freqs()),
      chan_size_(alloc.channel_sizes()),
      gain_(alloc.items()),
      home_(alloc.items()),
      spans_(alloc.channels(), Span{kNoRank, 0}),
      block_max_((alloc.items() + kBlockRanks - 1) / kBlockRanks),
      by_zf_(alloc.channels()),
      dirty_(block_max_.size(), 0),
      diff_(alloc.channels()),
      // Every search starts below N, so no search matches these keys.
      edges_(alloc.channels(), EdgeSearch{EdgeKey{0, 0, 0, 0, 0, alloc.items()}, 0}) {
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
  dirty_blocks_.reserve(block_max_.size());
  // Two maps of at most K pieces split the ranks into at most 2K − 1
  // segments, so at most K merged stale runs, plus the sentinel.
  stale_.reserve(k + 1);
  const std::vector<ChannelId>& assignment = alloc_.assignment();
  for (std::uint32_t r = 0; r < n; ++r) {
    home_[r] = assignment[order_[r]];
    Span& span = spans_[home_[r]];
    span.lo = std::min(span.lo, r);
    span.hi = r + 1;
  }

  build_hull();
  build_pieces(pieces_);
  for (std::size_t i = 0; i < pieces_.chan.size(); ++i) {
    const ChannelId to = pieces_.chan[i];
    refresh_range(pieces_.start[i], pieces_.start[i + 1], to);
  }
  for (std::size_t b = 0; b < block_max_.size(); ++b) mark_dirty(b);
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

std::size_t CandidateIndex::first_beaten(ChannelId a, ChannelId b, std::size_t from) {
  // Along the benefit order f/z falls, so the load difference
  // s_b − s_a = z·((f/z)·ΔZ + ΔF) of a hull edge (ΔZ > 0) changes sign at
  // most once: "b beats a" is a monotone predicate over ranks, and its
  // first true rank is a binary search away. Loads are compared as
  // f·Z + z·F: an algebraically equal form rounds differently near a
  // threshold and would move the seeded trajectories.
  const double za = chan_size_[a];
  const double fa = chan_freq_[a];
  const double zb = chan_size_[b];
  const double fb = chan_freq_[b];
  // The search is a pure function of the key's inputs and the item columns,
  // so an edge none of whose inputs moved since the last search of the edge
  // leaving `a` reuses its result; after a move that is every edge off p and
  // q whose start held. The start rank is part of the key: where rounding
  // blurs a threshold, a search from another start can land elsewhere.
  const EdgeKey key{b,
                    std::bit_cast<std::uint64_t>(za),
                    std::bit_cast<std::uint64_t>(fa),
                    std::bit_cast<std::uint64_t>(zb),
                    std::bit_cast<std::uint64_t>(fb),
                    from};
  EdgeSearch& memo = edges_[a];
  if (memo.key == key) return memo.end;
  // std::ranges::partition_point's probe sequence, which the seeded runs
  // replay, with selects in place of its branch on the probe. When b wins
  // ties, "sb < sa or sb == sa" is sb <= sa.
  const bool b_wins_ties = b < a;
  std::size_t first = from;
  for (std::size_t len = alloc_.items() - from; len > 0;) {
    const std::size_t half = len / 2;
    const std::size_t mid = first + half;
    const double f = item_freq_[mid];
    const double z = item_size_[mid];
    const double sa = f * za + z * fa;
    const double sb = f * zb + z * fb;
    const bool beaten = b_wins_ties ? sb <= sa : sb < sa;
    // All ones when the probe is not beaten and the search moves past it:
    // masks, since GCC turns a ?: on the probe back into a branch.
    const std::size_t past = std::size_t{0} - !beaten;
    first += (half + 1) & past;
    len = (half & ~past) | ((len - half - 1) & past);
  }
  memo = EdgeSearch{key, first};
  return memo.end;
}

void CandidateIndex::build_pieces(PieceMap& out) {
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

void CandidateIndex::refresh_range(std::size_t lo, std::size_t hi, ChannelId to) {
  // Same expression in the same order as Allocation::move_gain (Eq. 4), so
  // each cached gain is bit-identical to what best_move(alloc) computes; its
  // two differences are move_gain's own subtractions, taken once per home
  // channel into a table instead of from four aggregate loads per rank. A
  // gain is computed even when the target is home (measured faster than an
  // early return) and then replaced: with the home as the min-load channel
  // every move has Δc = C_y − s_q ≤ C_y − s_home = −2 f_y z_y < 0, so the
  // item is never selectable.
  const double z_to = chan_size_[to];
  const double f_to = chan_freq_[to];
  for (std::size_t c = 0; c < diff_.size(); ++c) {
    diff_[c] = Difference{chan_size_[c] - z_to, chan_freq_[c] - f_to};
  }
  std::size_t evaluated = 0;
  for (std::size_t r = lo; r < hi; ++r) {
    const ChannelId home = home_[r];
    const double f = item_freq_[r];
    const double z = item_size_[r];
    const double gain = f * diff_[home].size + z * diff_[home].freq - 2.0 * f * z;
    gain_[r] = home == to ? kNegInf : gain;
    evaluated += static_cast<std::size_t>(home != to);
  }
  moves_evaluated_ += evaluated;
}

void CandidateIndex::mark_dirty(std::size_t block) {
  if (dirty_[block] == 0) {
    dirty_[block] = 1;
    dirty_blocks_.push_back(static_cast<std::uint32_t>(block));
  }
}

void CandidateIndex::refresh_members(ChannelId c) {
  // The stale segments' refresh already recomputed every gain in them, the
  // members' included, so the walk covers only the span's ranks between
  // them. One block of such a stretch at a time: pack the block's members
  // into `found` without a branch, then refresh them in rank order, each
  // target read from a cursor over the piece map instead of a search. The
  // home column and the members' f, z and gain are all read in rank order,
  // so the walk streams; only a span much wider than its members (an
  // interleaved layout) makes it cost more than a per-channel member list
  // would. Every member's home is c, so Eq. 4's differences change only
  // with the piece.
  std::uint32_t found[kBlockRanks];
  const Span span = spans_[c];
  const double z_home = chan_size_[c];
  const double f_home = chan_freq_[c];
  std::size_t piece = 0;
  ChannelId to = pieces_.chan[0];
  Difference diff{z_home - chan_size_[to], f_home - chan_freq_[to]};
  std::size_t evaluated = 0;
  std::size_t scanned = 0;
  const Span* stale = stale_.data();  // the first stale run not yet passed
  for (std::uint32_t first = span.lo; first < span.hi;) {
    while (stale->hi <= first) ++stale;
    if (stale->lo <= first) {
      first = stale->hi;
      continue;
    }
    const auto end = static_cast<std::uint32_t>(std::min<std::size_t>(
        std::min(span.hi, stale->lo), (first / kBlockRanks + 1) * kBlockRanks));
    scanned += end - first;
    std::size_t count = 0;
    for (std::uint32_t r = first; r < end; ++r) {
      found[count] = r;
      count += home_[r] == c;
    }
    if (count > 0) mark_dirty(first / kBlockRanks);
    for (std::size_t m = 0; m < count; ++m) {
      const std::uint32_t r = found[m];
      if (pieces_.start[piece + 1] <= r) {
        do ++piece;
        while (pieces_.start[piece + 1] <= r);
        to = pieces_.chan[piece];
        diff = Difference{z_home - chan_size_[to], f_home - chan_freq_[to]};
      }
      const double f = item_freq_[r];
      const double z = item_size_[r];
      const double gain = f * diff.size + z * diff.freq - 2.0 * f * z;
      gain_[r] = to == c ? kNegInf : gain;
      evaluated += static_cast<std::size_t>(to != c);
    }
    first = end;
  }
  moves_evaluated_ += evaluated;
  span_ranks_ += scanned;
}

void CandidateIndex::fold() {
  const ChannelId p = touched_p_;
  const ChannelId q = touched_q_;
  build_hull();
  std::swap(pieces_, old_pieces_);
  build_pieces(pieces_);

  // Walk the segments on which neither map changes piece. A gain depends on
  // the item's home and target aggregates only, so it is stale exactly when
  // the target changed, the target is p or q, or the home is p or q. The
  // first two are whole rank ranges, recorded as merged runs for the span
  // walks; items on p or q are found in their spans. A range refresh
  // computes their gains too rather than branch around them, so the span
  // walks skip the runs and each stale gain is computed and counted once.
  const std::size_t n = alloc_.items();
  stale_.clear();
  std::size_t i = 0;
  std::size_t j = 0;
  for (std::size_t pos = 0; pos < n;) {
    const std::size_t end = std::min(old_pieces_.start[i + 1], pieces_.start[j + 1]);
    const ChannelId to = pieces_.chan[j];
    if (old_pieces_.chan[i] != to || to == p || to == q) {
      repairs_ += end - pos;
      for (std::size_t b = pos / kBlockRanks; b <= (end - 1) / kBlockRanks; ++b) {
        mark_dirty(b);
      }
      refresh_range(pos, end, to);
      if (!stale_.empty() && stale_.back().hi == pos) {
        stale_.back().hi = static_cast<std::uint32_t>(end);
      } else {
        stale_.push_back(Span{static_cast<std::uint32_t>(pos), static_cast<std::uint32_t>(end)});
      }
    }
    pos = end;
    i += old_pieces_.start[i + 1] == end;
    j += pieces_.start[j + 1] == end;
  }
  // Past every span, so the walks never run off the end of the list.
  stale_.push_back(Span{static_cast<std::uint32_t>(n), static_cast<std::uint32_t>(n)});
  refresh_members(p);
  if (q != p) refresh_members(q);
}

CdsMove CandidateIndex::best_move() {
  if (pending_) {
    fold();
    pending_ = false;
  }
  const std::size_t n = alloc_.items();
  for (const std::uint32_t b : dirty_blocks_) {
    const std::size_t first = b * kBlockRanks;
    block_max_[b] = max_of(gain_.data() + first, std::min(kBlockRanks, n - first));
    dirty_[b] = 0;
  }
  dirty_blocks_.clear();
  // Ties resolve to the smallest item id, the order best_move(alloc)'s
  // ascending-id strict-> loop induces. Rank order is not id order, so
  // every block whose maximum is the top gain is searched for its smallest
  // id, two gains at a time.
  const double top = max_of(block_max_.data(), block_max_.size());
  const Pair tops = {top, top};
  std::size_t best = n;
  auto consider = [&](std::size_t r) {
    if (gain_[r] == top && (best == n || order_[r] < order_[best])) best = r;
  };
  for (std::size_t b = 0; b < block_max_.size(); ++b) {
    if (block_max_[b] != top) continue;
    const std::size_t end = std::min(n, (b + 1) * kBlockRanks);
    std::size_t r = b * kBlockRanks;
    for (; r + 2 <= end; r += 2) {
      const auto equal = load_pair(&gain_[r]) == tops;
      if ((equal[0] | equal[1]) == 0) continue;
      consider(r);
      consider(r + 1);
    }
    if (r < end) consider(r);
  }
  selected_ = static_cast<std::uint32_t>(best);
  return CdsMove{order_[best], home_[best], pieces_.target_at(best), top};
}

void CandidateIndex::apply(const CdsMove& move) {
  DBS_CHECK_MSG(!pending_, "apply() calls must be interleaved with best_move()");
  const ChannelId from = alloc_.channel_of(move.item);
  alloc_.move(move.item, move.to);
  // CDS applies the move best_move() just returned, whose rank selection
  // found; any other move pays a linear search of the benefit order.
  std::uint32_t rank = selected_;
  if (order_[selected_] != move.item) {
    const auto found = std::ranges::find(order_, move.item);
    rank = static_cast<std::uint32_t>(found - order_.begin());
  }
  home_[rank] = move.to;
  Span& span = spans_[move.to];
  span.lo = std::min(span.lo, rank);
  span.hi = std::max(span.hi, rank + 1);
  // The source's span sheds the moved rank when it was an end: step each
  // end inward to a member. An emptied channel's span becomes empty.
  Span& source = spans_[from];
  std::uint32_t lo = source.lo;
  std::uint32_t hi = source.hi;
  while (lo < hi && home_[lo] != from) ++lo;
  while (hi > lo && home_[hi - 1] != from) --hi;
  span_ranks_ += (lo - source.lo) + (source.hi - hi);
  source = lo < hi ? Span{lo, hi} : Span{kNoRank, 0};
  touched_p_ = from;
  touched_q_ = move.to;
  pending_ = true;
}

}  // namespace dbs
