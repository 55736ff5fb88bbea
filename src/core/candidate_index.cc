#include "core/candidate_index.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/check.h"
#include "model/database.h"

namespace dbs {
namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();
constexpr ChannelId kNoDup = std::numeric_limits<ChannelId>::max();

}  // namespace

void CandidateIndex::Layer::reserve(std::size_t k) {
  z.reserve(k);
  f.reserve(k);
  id.reserve(k);
  dup.reserve(k);
}

void CandidateIndex::Layer::assign_lower_hull(const std::vector<Point>& pts) {
  // Andrew monotone chain, built straight into the columns.
  auto cross = [this](std::size_t o, std::size_t a, const Point& b) {
    return (z[a] - z[o]) * (b.f - f[o]) - (f[a] - f[o]) * (b.z - z[o]);
  };
  z.clear();
  f.clear();
  id.clear();
  dup.clear();
  for (const Point& p : pts) {
    while (size() >= 2 && cross(size() - 2, size() - 1, p) <= 0.0) {
      z.pop_back();
      f.pop_back();
      id.pop_back();
      dup.pop_back();
    }
    z.push_back(p.z);
    f.push_back(p.f);
    id.push_back(p.id);
    dup.push_back(p.dup);
  }
}

CandidateIndex::CandidateIndex(Allocation& alloc)
    : alloc_(alloc),
      item_freq_(alloc.database().freqs()),
      item_size_(alloc.database().sizes()),
      chan_freq_(alloc.channel_freqs()),
      chan_size_(alloc.channel_sizes()),
      c1_(alloc.items()),
      c2_(alloc.items()),
      s1_(alloc.items()),
      s2_(alloc.items()),
      gain_(alloc.items()),
      by_zf_(alloc.channels()) {
  DBS_CHECK_MSG(alloc_.channels() >= 2,
                "the candidate index needs at least two channels");
  const std::size_t k = alloc_.channels();
  std::iota(by_zf_.begin(), by_zf_.end(), 0);
  points_.reserve(k);
  rest_.reserve(k);
  layer1_.reserve(k);
  layer2_.reserve(k);
  attention_.reserve(alloc_.items());
  build_hull();
  const std::size_t n = alloc_.items();
  const std::vector<ChannelId>& home = alloc_.assignment();
  for (ItemId y = 0; y < n; ++y) {
    query_pair(y);
    refresh_gain(y, home[y]);
  }
}

void CandidateIndex::build_hull() {
  // Deduplicate channel points, remembering the two smallest ids per point.
  // The order is total (ids break ties), so re-sorting the previous fold's
  // permutation gives the same result as sorting from scratch.
  std::sort(by_zf_.begin(), by_zf_.end(), [&](ChannelId a, ChannelId b) {
    if (chan_size_[a] != chan_size_[b]) return chan_size_[a] < chan_size_[b];
    if (chan_freq_[a] != chan_freq_[b]) return chan_freq_[a] < chan_freq_[b];
    return a < b;
  });
  points_.clear();
  for (const ChannelId c : by_zf_) {
    if (!points_.empty() && points_.back().z == chan_size_[c] &&
        points_.back().f == chan_freq_[c]) {
      // by_zf_ is id-ascending within equal points, so the first follower is
      // already the second-smallest id.
      if (points_.back().dup == kNoDup) points_.back().dup = c;
      continue;
    }
    points_.push_back(Point{chan_size_[c], chan_freq_[c], c, kNoDup});
  }

  // Two onion layers: the load argmin lives on layer 1, and the runner-up on
  // layer 1's chain neighbours, layer 1's duplicate id, or layer 2's argmin
  // (second-layer sufficiency: removing one hull vertex exposes at most
  // layer-2 points).
  layer1_.assign_lower_hull(points_);
  rest_.clear();
  std::size_t h = 0;
  for (const Point& p : points_) {
    if (h < layer1_.size() && layer1_.id[h] == p.id) {
      ++h;
    } else {
      rest_.push_back(p);
    }
  }
  layer2_.assign_lower_hull(rest_);
}

namespace {

/// Branchless binary search for the argmin of the load functional
/// s = f·Z + z·F over a convex chain. The sign of the per-edge delta
/// f·ΔZ + z·ΔF flips exactly once along the chain (the edge direction
/// rotates monotonically through a half-plane), so "delta ≥ 0" is a
/// monotone predicate and its first edge index is the leftmost minimum.
/// The length-halving form keeps the probe sequence data-independent and
/// the ternaries compile to conditional moves — the predicate is a coin
/// flip per probe, so a branching search would eat a misprediction on
/// nearly every level across millions of queries.
inline std::size_t chain_argmin(const double* zs, const double* fs,
                                std::size_t vertices, double f, double z) {
  std::size_t lo = 0;
  std::size_t len = vertices - 1;  // edges still in play
  while (len > 0) {
    const std::size_t half = len / 2;
    const std::size_t mid = lo + half;
    const double delta = f * (zs[mid + 1] - zs[mid]) + z * (fs[mid + 1] - fs[mid]);
    const bool ge = delta >= 0.0;
    lo = ge ? lo : mid + 1;
    len = ge ? half : len - half - 1;
  }
  return lo;
}

}  // namespace

void CandidateIndex::query_pair(ItemId y) {
  const double f = item_freq_[y];
  const double z = item_size_[y];

  const double* z1 = layer1_.z.data();
  const double* f1 = layer1_.f.data();
  auto load1 = [&](std::size_t i) { return f * z1[i] + z * f1[i]; };
  const std::size_t lo = chain_argmin(z1, f1, layer1_.size(), f, z);

  // Exact best among the located vertex and its chain neighbours, by
  // (load, id) — the brute-force scan's target tie-break.
  std::size_t bi = lo;
  double bs = load1(lo);
  auto consider_best = [&](std::size_t i) {
    const double s = load1(i);
    if (s < bs || (s == bs && layer1_.id[i] < layer1_.id[bi])) {
      bi = i;
      bs = s;
    }
  };
  if (lo > 0) consider_best(lo - 1);
  if (lo + 1 < layer1_.size()) consider_best(lo + 1);

  // Runner-up candidates: the best point's duplicate id, the best vertex's
  // chain neighbours, and layer 2's own argmin neighbourhood. The true
  // runner-up is always among these (header doc / ARCHITECTURE.md §5), and
  // every candidate is a real channel with its exact load, so the min over
  // this superset is the exact runner-up.
  ChannelId second_c = 0;
  double second_s = 0.0;
  bool have_second = false;
  auto offer = [&](ChannelId c, double s) {
    if (!have_second || s < second_s || (s == second_s && c < second_c)) {
      have_second = true;
      second_c = c;
      second_s = s;
    }
  };
  if (layer1_.dup[bi] != kNoDup) offer(layer1_.dup[bi], bs);
  if (bi > 0) offer(layer1_.id[bi - 1], load1(bi - 1));
  if (bi + 1 < layer1_.size()) offer(layer1_.id[bi + 1], load1(bi + 1));
  if (!layer2_.empty()) {
    const double* z2 = layer2_.z.data();
    const double* f2 = layer2_.f.data();
    auto load2 = [&](std::size_t i) { return f * z2[i] + z * f2[i]; };
    const std::size_t lo2 = chain_argmin(z2, f2, layer2_.size(), f, z);
    offer(layer2_.id[lo2], load2(lo2));
    if (lo2 > 0) offer(layer2_.id[lo2 - 1], load2(lo2 - 1));
    if (lo2 + 1 < layer2_.size()) offer(layer2_.id[lo2 + 1], load2(lo2 + 1));
  }
  DBS_CHECK_MSG(have_second, "K >= 2 guarantees a runner-up candidate");

  c1_[y] = layer1_.id[bi];
  s1_[y] = bs;
  c2_[y] = second_c;
  s2_[y] = second_s;
}

void CandidateIndex::refresh_gain(ItemId y, ChannelId home) {
  const ChannelId to = c1_[y];
  if (to == home) {
    // Home already the min-load channel: every move has
    // Δc = C_y − s_q ≤ C_y − s_home = −2 f_y z_y < 0. Never selectable.
    gain_[y] = kNegInf;
    return;
  }
  const double f = item_freq_[y];
  const double z = item_size_[y];
  // Same expression in the same order as Allocation::move_gain (Eq. 4), so
  // the cached gain is bit-identical to what best_move(alloc) computes — the
  // call is only inlined here because this runs a few million times per
  // large CDS run.
  gain_[y] = f * (chan_size_[home] - chan_size_[to]) +
             z * (chan_freq_[home] - chan_freq_[to]) - 2.0 * f * z;
  ++moves_evaluated_;
}

CdsMove CandidateIndex::best_move() {
  const std::size_t n = alloc_.items();
  const std::vector<ChannelId>& home = alloc_.assignment();

  if (pending_) {
    const ChannelId p = touched_p_;
    const ChannelId q = touched_q_;
    build_hull();
    const double zp = chan_size_[p];
    const double fp = chan_freq_[p];
    const double zq = chan_size_[q];
    const double fq = chan_freq_[q];

    // Pass 1 (pure, sequential): collect the disturbed items. Everything
    // else keeps bit-identical cached state — its slots survived, neither
    // touched channel's new load reaches its runner-up, and its home
    // aggregates are unchanged, so both the pair and the cached Eq. 4 gain
    // are still exact.
    attention_.clear();
    const ChannelId* c1 = c1_.data();
    const ChannelId* c2 = c2_.data();
    const double* s2 = s2_.data();
    const ChannelId* hm = home.data();
    const double* fi = item_freq_.data();
    const double* zi = item_size_.data();
    for (ItemId y = 0; y < n; ++y) {
      const bool slot_touch =
          (c1[y] == p) | (c1[y] == q) | (c2[y] == p) | (c2[y] == q);
      const bool home_touch = (hm[y] == p) | (hm[y] == q);
      const double sp = fi[y] * zp + zi[y] * fp;
      const double sq = fi[y] * zq + zi[y] * fq;
      const bool beat = (sp <= s2[y]) | (sq <= s2[y]);
      if (slot_touch | home_touch | beat) attention_.push_back(y);
    }

    // Pass 2: repair the disturbed items. A pure home-touch only needs its
    // gain refreshed; anything whose min-2 might have shifted is re-queried
    // against the fresh hull, so pairs are always exact — there is no
    // provisional or lapsed state to track.
    for (const ItemId y : attention_) {
      const bool slot_touch =
          (c1_[y] == p) | (c1_[y] == q) | (c2_[y] == p) | (c2_[y] == q);
      const double sp = item_freq_[y] * zp + item_size_[y] * fp;
      const double sq = item_freq_[y] * zq + item_size_[y] * fq;
      const bool beat = (sp <= s2_[y]) | (sq <= s2_[y]);
      if (slot_touch | beat) {
        query_pair(y);
        ++repairs_;
      }
      refresh_gain(y, home[y]);
    }
    pending_ = false;
  }

  // Selection is a pure argmax over the cached gain column. Keeping the
  // first maximum ties to the smallest item id — the same total order
  // best_move(alloc)'s ascending-id strict-> loop induces.
  const double* g = gain_.data();
  std::size_t bi = 0;
  double bg = g[0];
  for (std::size_t y = 1; y < n; ++y) {
    if (g[y] > bg) {
      bg = g[y];
      bi = y;
    }
  }
  return CdsMove{static_cast<ItemId>(bi), home[bi], c1_[bi], bg};
}

void CandidateIndex::apply(const CdsMove& move) {
  DBS_CHECK_MSG(!pending_, "apply() calls must be interleaved with best_move()");
  alloc_.move(move.item, move.to);
  touched_p_ = move.from;
  touched_q_ = move.to;
  pending_ = true;
}

}  // namespace dbs
