#include "core/candidate_index.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <string>
#include <tuple>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "core/cds.h"
#include "core/drp.h"
#include "tie_heavy.h"
#include "workload/generator.h"

// Counts this binary's heap allocations, so a test can prove that a code
// path allocates nothing. Each replaced new has its matching delete, which
// keeps the sanitizers' new/delete pairing intact; the deletes stay out of
// line so GCC does not mistake their free() for a mismatched pair.
static std::atomic<std::size_t> g_heap_allocations{0};
void* operator new(std::size_t bytes, const std::nothrow_t&) noexcept {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(bytes == 0 ? 1 : bytes);
}
void* operator new(std::size_t bytes) {
  if (void* p = operator new(bytes, std::nothrow)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace dbs {
namespace {

// The index's correctness obligation: whenever the exhaustive
// best_move(alloc) scan finds an improving move (gain > 0), best_move()
// returns that same move — same item, same target, bit-identical gain (both
// compute Eq. 4 with the same expression). At a local optimum it returns
// some move with gain ≤ 0, not necessarily the scan's: an item whose
// min-load channel is its home caches −∞, so when the scan's best move
// belongs to such an item the index names another.
//
// This check is stricter: the scan's move at every step, improving or not.
// Each walk that uses it stays clear of the case above.
void expect_matches_scan(Allocation& alloc, CandidateIndex& index,
                         const char* context) {
  const CdsMove scan = best_move(alloc);
  const CdsMove indexed = index.best_move();
  ASSERT_EQ(scan.item, indexed.item) << context;
  ASSERT_EQ(scan.from, indexed.from) << context;
  ASSERT_EQ(scan.to, indexed.to) << context;
  ASSERT_DOUBLE_EQ(scan.gain, indexed.gain) << context;
}

// The obligation itself, for states that may be local optima.
void expect_keeps_contract(Allocation& alloc, CandidateIndex& index,
                           const char* context) {
  if (best_move(alloc).gain > 0.0) {
    expect_matches_scan(alloc, index, context);
  } else {
    EXPECT_LE(index.best_move().gain, 0.0) << context;
  }
}

// Whatever the state, an aged index selects exactly what one built from
// scratch on the same allocation selects: no fold leaves a trace.
void expect_matches_fresh(Allocation& alloc, CandidateIndex& aged,
                          const char* context) {
  CandidateIndex fresh(alloc);
  const CdsMove from_aged = aged.best_move();
  const CdsMove from_fresh = fresh.best_move();
  ASSERT_EQ(from_aged.item, from_fresh.item) << context;
  ASSERT_EQ(from_aged.to, from_fresh.to) << context;
  ASSERT_EQ(from_aged.gain, from_fresh.gain) << context;
}

// Applies 200 random legal moves, checking the index before each one.
// apply() accepts any legal move, not just the one best_move() returned, so
// the walk exercises the fold under dynamics a greedy descent never
// produces (cost-increasing moves, revisits).
void walk_randomly(Allocation& alloc, CandidateIndex& index,
                   void (*check)(Allocation&, CandidateIndex&, const char*)) {
  const ChannelId k = alloc.channels();
  Rng rng(99);
  for (int step = 0; step < 200; ++step) {
    check(alloc, index, "random walk");
    const ItemId item = static_cast<ItemId>(rng.below(alloc.items()));
    ChannelId to = static_cast<ChannelId>(rng.below(k));
    if (to == alloc.assignment()[item]) to = static_cast<ChannelId>((to + 1) % k);
    index.apply(CdsMove{item, alloc.assignment()[item], to, 0.0});
  }
}

// Channel = rank mod K: every channel's members spread over nearly all N
// ranks, K − 1 non-members between each two.
std::vector<ChannelId> interleaved_start(const Database& db, ChannelId k) {
  std::vector<ChannelId> start(db.size());
  for (std::size_t rank = 0; rank < db.size(); ++rank) {
    start[db.benefit_order()[rank]] = static_cast<ChannelId>(rank % k);
  }
  return start;
}

Allocation local_optimum(const Database& db, ChannelId channels) {
  Allocation optimum = run_drp(db, channels).allocation;
  run_cds(optimum);
  return optimum;
}

TEST(CandidateIndex, AgreesWithScanOnFreshAllocations) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Database db = generate_database({.items = 40 + seed * 10,
                                           .skewness = 0.5 + 0.05 * seed,
                                           .diversity = 2.0, .seed = seed});
    Allocation alloc = run_drp(db, static_cast<ChannelId>(2 + seed)).allocation;
    CandidateIndex index(alloc);
    expect_matches_scan(alloc, index, "fresh DRP allocation");
  }
}

TEST(CandidateIndex, AgreesWithScanAlongAGreedyTrajectory) {
  const Database db = generate_database({.items = 90, .skewness = 0.7,
                                         .diversity = 2.5, .seed = 21});
  Allocation alloc(db, 6);  // everything on channel 0: long improvement run
  CandidateIndex index(alloc);
  for (int step = 0; step < 400; ++step) {
    const CdsMove move = index.best_move();
    expect_matches_scan(alloc, index, "greedy trajectory");
    if (move.gain <= 1e-12) break;
    index.apply(move);
  }
  EXPECT_LE(best_move(alloc).gain, 1e-12) << "trajectory must end at the optimum";
}

TEST(CandidateIndex, AgreesWithScanUnderArbitraryMoves) {
  // The second shape walks away from a CDS local optimum, whose channel
  // points spread along the lower hull (about a dozen pieces at K = 64), so
  // the walk also checks folds in which the target's piece vanishes and
  // folds in which the source's piece appears between two others.
  struct Shape {
    std::size_t items;
    ChannelId channels;
    std::uint64_t seed;
    bool from_local_optimum;  // else from a random assignment
  };
  // The last three shapes put a block boundary (256 ranks) just past and
  // just before the end, and spread the ranks over four blocks.
  for (const Shape shape : {Shape{60, 5, 22, false}, Shape{400, 64, 28, true},
                            Shape{255, 6, 29, false}, Shape{257, 6, 30, false},
                            Shape{900, 16, 31, false}}) {
    const Database db = generate_database({.items = shape.items, .diversity = 3.0,
                                           .seed = shape.seed});
    const ChannelId k = shape.channels;
    Allocation alloc = [&] {
      if (shape.from_local_optimum) return local_optimum(db, k);
      Rng rng(7);
      std::vector<ChannelId> start(db.size());
      for (auto& c : start) c = static_cast<ChannelId>(rng.below(k));
      return Allocation(db, k, start);
    }();
    CandidateIndex index(alloc);
    walk_randomly(alloc, index, expect_matches_scan);
  }
}

TEST(CandidateIndex, AgreesWithScanFromAnInterleavedStart) {
  // Channel = rank mod K spreads every channel's members over nearly all N
  // ranks, so each fold walks two spans of about N ranks that hold N/K
  // members each: the member walk's worst layout.
  const Database db = generate_database({.items = 900, .diversity = 3.0, .seed = 32});
  constexpr ChannelId k = 8;
  Allocation alloc(db, k, interleaved_start(db, k));
  CandidateIndex index(alloc);
  walk_randomly(alloc, index, expect_matches_scan);
}

TEST(CandidateIndex, AgreesWithScanWhileAChannelEmptiesAndRefills) {
  // Every member leaves channel 1, one move at a time, so its span shrinks
  // to nothing; then the items at rank 0 and rank N − 1 move in, so it
  // grows back from both ends of the rank order. A greedy descent from
  // there selects any gain a fold missed before it stops, since every
  // stale gain is selected once it is the top one.
  const Database db = generate_database({.items = 600, .diversity = 3.0, .seed = 33});
  constexpr ChannelId k = 4;
  constexpr ChannelId emptied = 1;
  Rng rng(8);
  std::vector<ChannelId> start(db.size());
  for (auto& c : start) c = static_cast<ChannelId>(rng.below(k));
  Allocation alloc(db, k, start);
  CandidateIndex index(alloc);
  auto apply_and_check = [&](const CdsMove& move, const char* context) {
    index.apply(move);
    expect_keeps_contract(alloc, index, context);
    expect_matches_fresh(alloc, index, context);
  };
  auto move_to = [&](ItemId item, ChannelId to, const char* context) {
    apply_and_check(CdsMove{item, alloc.assignment()[item], to, 0.0}, context);
  };
  constexpr ChannelId others[] = {0, 2, 3};
  for (ItemId item = 0; item < db.size(); ++item) {
    if (alloc.assignment()[item] == emptied) move_to(item, others[item % 3], "emptying");
  }
  ASSERT_EQ(alloc.count_of(emptied), 0u);
  move_to(db.benefit_order().front(), emptied, "refilled at rank 0");
  move_to(db.benefit_order().back(), emptied, "refilled at rank N - 1");
  for (CdsMove move = index.best_move(); move.gain > 0.0; move = index.best_move()) {
    apply_and_check(move, "greedy descent after the refill");
  }
}

TEST(CandidateIndex, KeepsItsContractOnWalksFromLocalOptima) {
  // The same block-spanning catalogues as above, walked from DRP-CDS local
  // optima. At the N = 257 optimum the scan's best move belongs to an item
  // whose min-load channel is its home, so the index names another
  // non-improving move; improving states along the walks must still match
  // the scan exactly.
  for (const auto& [items, k, seed] :
       {std::tuple<std::size_t, ChannelId, std::uint64_t>{255, 6, 29},
        {257, 6, 30}, {900, 16, 31}}) {
    const Database db = generate_database({.items = items, .diversity = 3.0,
                                           .seed = seed});
    Allocation alloc = local_optimum(db, k);
    CandidateIndex index(alloc);
    ASSERT_LE(best_move(alloc).gain, 1e-12) << items << " items";
    walk_randomly(alloc, index, expect_keeps_contract);
  }
}

TEST(CandidateIndex, ExactLoadTiesGoToTheSmallerChannelLikeTheScan) {
  // A zero-frequency item's load on channel c is z·F_c, so two channels with
  // equal F tie exactly although they are distinct hull vertices (the two
  // ends of a flat hull edge). The scan moves such an item to the smaller
  // id, and so must the index, whichever end of the edge that id sits on.
  // Item 0 (f = 0) and item 1 (f = 3) share channel 0; items 2 (z = 3) and
  // 3 (z = 1) put F = 1/5 on channels 1 and 2 in both orders.
  const Database db({1.0, 1.0, 3.0, 1.0}, {0.0, 3.0, 1.0, 1.0});
  for (const bool smaller_id_on_left : {true, false}) {
    Allocation alloc(db, 3,
                     smaller_id_on_left ? std::vector<ChannelId>{0, 0, 2, 1}
                                        : std::vector<ChannelId>{0, 0, 1, 2});
    CandidateIndex index(alloc);
    const CdsMove scan = best_move(alloc);
    ASSERT_EQ(scan.item, 0u);
    ASSERT_EQ(scan.to, 1u);
    expect_matches_scan(alloc, index, smaller_id_on_left ? "smaller id on the left"
                                                         : "smaller id on the right");
  }
}

// Runs a greedy descent to convergence, checking the index against a fresh
// one after every fold, then a random walk checked the same way; the walk's
// revisits take a channel off the hull and bring it back with new
// aggregates.
void descend_and_walk_against_fresh(Allocation& alloc, const std::string& context) {
  CandidateIndex aged(alloc);
  for (CdsMove move = aged.best_move(); move.gain > kCdsMinGain; move = aged.best_move()) {
    aged.apply(move);
    expect_matches_fresh(alloc, aged, context.c_str());
  }
  walk_randomly(alloc, aged, expect_matches_fresh);
}

TEST(CandidateIndex, AgedIndexAgreesWithFreshlyBuiltIndex) {
  // After every fold the cached columns must equal what a from-scratch
  // construction computes: no fold may leave a trace, including a boundary
  // search reused from an earlier fold. The generated catalogues start from
  // everything on channel 0 at K = 6 and from DRP at K = 16; their sizes
  // give one, two and four blocks of ranks, and last blocks of 1 and 7
  // ranks.
  for (const std::size_t items : {70, 255, 257, 263, 900}) {
    const Database db = generate_database({.items = items, .diversity = 2.0, .seed = 23});
    for (const bool from_drp : {false, true}) {
      Allocation alloc = from_drp ? run_drp(db, 16).allocation : Allocation(db, 6);
      descend_and_walk_against_fresh(
          alloc, std::to_string(items) + " items from " + (from_drp ? "DRP" : "one channel"));
    }
  }
  // The tie-heavy integer catalogues of
  // CdsIndexed.ReachesALocalOptimumOnTieHeavyIntegerCatalogues: rounding
  // blurs their hull thresholds, so a boundary search can land elsewhere
  // from another start rank, and a search reused across a changed start
  // shows here.
  Rng rng(2005);
  for (int instance = 0; instance < 200; ++instance) {
    const TieHeavyInstance drawn = draw_tie_heavy_instance(rng);
    for (const bool all_on_zero : {false, true}) {
      Allocation alloc = all_on_zero ? Allocation(drawn.db, drawn.channels)
                                     : Allocation(drawn.db, drawn.channels, drawn.scattered);
      descend_and_walk_against_fresh(alloc, "integer instance " + std::to_string(instance) +
                                                (all_on_zero ? " from channel 0" : " scattered"));
    }
  }
}

TEST(CandidateIndex, AgedIndexAgreesWithFreshWhenNearlyEveryRankIsStale) {
  // With two or three channels nearly every rank targets p or q after a
  // move, so the stale segments cover most of both spans and the member
  // walks refresh only the few ranks between them. Descents and random
  // walks from DRP's groups and from channel = rank mod K, checked against
  // a fresh index after every fold. A member walk that also skipped the
  // rank after each stale run passes some of these catalogues, so there
  // are eight.
  for (std::uint64_t seed = 34; seed < 42; ++seed) {
    const Database db = generate_database({.items = 600, .diversity = 3.0, .seed = seed});
    for (const ChannelId k : {ChannelId{2}, ChannelId{3}}) {
      for (const bool interleaved : {false, true}) {
        Allocation alloc = interleaved ? Allocation(db, k, interleaved_start(db, k))
                                       : run_drp(db, k).allocation;
        descend_and_walk_against_fresh(alloc, "seed " + std::to_string(seed) + ", K = " +
                                                  std::to_string(k) +
                                                  (interleaved ? " interleaved" : " from DRP"));
      }
    }
  }
}

TEST(CandidateIndex, MovingASpanEndStepsItInwardToTheNextMember) {
  // Channel = rank mod 3 puts channel 1's members at ranks 1, 4, ..., 598
  // of 600. Moving its first member steps the span's start past ranks 1–3,
  // moving its last steps the end past ranks 596–598, and moving a member
  // in between leaves the span as it is. Each move is checked against a
  // fresh index, so a span that lost a member would show.
  const Database db = generate_database({.items = 600, .diversity = 3.0, .seed = 35});
  constexpr ChannelId k = 3;
  Allocation alloc(db, k, interleaved_start(db, k));
  CandidateIndex index(alloc);
  index.best_move();
  for (const auto& [rank, to, stepped] :
       {std::tuple<std::size_t, ChannelId, std::size_t>{1, 0, 3}, {598, 2, 3}, {301, 0, 0},
        {4, 2, 3}}) {
    const ItemId item = db.benefit_order()[rank];
    const std::size_t before = index.span_ranks();
    index.apply(CdsMove{item, 1, to, 0.0});
    EXPECT_EQ(index.span_ranks() - before, stepped) << "rank " << rank;
    expect_matches_fresh(alloc, index, "after moving a member of channel 1");
  }
  for (CdsMove move = index.best_move(); move.gain > kCdsMinGain; move = index.best_move()) {
    index.apply(move);
    expect_matches_fresh(alloc, index, "descent after the end moves");
  }
}

TEST(CandidateIndex, AgedIndexAgreesWithFreshWhenAMoveEmptiesItsSource) {
  // Channel 2 holds one item, at rank 150 of 300. Moving it out empties the
  // channel; moving the items at rank 0 and rank N − 1 in regrows its span
  // from both ends of the rank order. A descent follows, checked after
  // every fold.
  const Database db = generate_database({.items = 300, .diversity = 3.0, .seed = 36});
  std::vector<ChannelId> start(db.size());
  for (std::size_t rank = 0; rank < db.size(); ++rank) {
    start[db.benefit_order()[rank]] = rank == 150 ? 2 : static_cast<ChannelId>(rank >= 150);
  }
  Allocation alloc(db, 3, start);
  CandidateIndex index(alloc);
  index.best_move();
  index.apply(CdsMove{db.benefit_order()[150], 2, 0, 0.0});
  ASSERT_EQ(alloc.count_of(2), 0u);
  expect_matches_fresh(alloc, index, "channel 2 emptied");
  index.apply(CdsMove{db.benefit_order().front(), 0, 2, 0.0});
  expect_matches_fresh(alloc, index, "refilled at rank 0");
  index.apply(CdsMove{db.benefit_order().back(), 1, 2, 0.0});
  expect_matches_fresh(alloc, index, "refilled at rank N - 1");
  for (CdsMove move = index.best_move(); move.gain > kCdsMinGain; move = index.best_move()) {
    index.apply(move);
    expect_matches_fresh(alloc, index, "descent after the refill");
  }
}

TEST(CandidateIndex, ASelfMoveLeavesTheSelectionUnchanged) {
  // apply({x, p, p}) moves nothing, yet the fold still treats p as touched:
  // its stale segments and members are refreshed to the same gains. Self-
  // moves of the selected item and of the first and last members of a
  // channel's span must leave the cost and the selected move as they were.
  const Database db = generate_database({.items = 400, .diversity = 3.0, .seed = 37});
  Allocation alloc = run_drp(db, 5).allocation;
  CandidateIndex index(alloc);
  const CdsMove selected = index.best_move();
  ASSERT_GT(selected.gain, 0.0);
  const double cost = alloc.cost();
  std::vector<ItemId> on_two;
  for (const ItemId id : db.benefit_order()) {
    if (alloc.assignment()[id] == 2) on_two.push_back(id);
  }
  ASSERT_FALSE(on_two.empty());
  for (const ItemId item : {selected.item, on_two.front(), on_two.back()}) {
    const ChannelId home = alloc.assignment()[item];
    index.apply(CdsMove{item, home, home, 0.0});
    EXPECT_EQ(alloc.cost(), cost);
    const CdsMove again = index.best_move();
    EXPECT_EQ(again.item, selected.item);
    EXPECT_EQ(again.to, selected.to);
    EXPECT_EQ(again.gain, selected.gain);
    expect_matches_fresh(alloc, index, "after a self-move");
  }
}

TEST(CandidateIndex, EqualGainsGoToTheSmallerIdAcrossBlocks) {
  // Items 0 (f = 1/16, z = 8) and 417 (f = 1/8, z = 4) both gain exactly 11
  // by leaving channel 0 (F = 1, Z = 64) for the empty channel 1; the 416
  // fillers (f = 1/512, z = 1/8) gain about 0.25. Every value is dyadic, so
  // the gains are exact. By benefit ratio item 417 ranks first and item 0
  // ranks 417th, in the second block of ranks: the index must still pick
  // the smaller id, as the scan does.
  std::vector<double> sizes(418, 0.125);
  std::vector<double> freqs(418, 1.0 / 512.0);
  sizes[0] = 8.0;
  freqs[0] = 1.0 / 16.0;
  sizes[417] = 4.0;
  freqs[417] = 1.0 / 8.0;
  const Database db(sizes, freqs);
  ASSERT_EQ(db.benefit_order().front(), 417u);
  ASSERT_EQ(db.benefit_order().back(), 0u);
  Allocation alloc(db, 2);
  CandidateIndex index(alloc);
  const CdsMove scan = best_move(alloc);
  ASSERT_EQ(scan.item, 0u);
  ASSERT_EQ(scan.gain, 11.0);
  ASSERT_EQ(alloc.move_gain(417, 1), 11.0);
  expect_matches_scan(alloc, index, "equal gains in different blocks");
}

TEST(CandidateIndex, CountsWorkAndRepairs) {
  const Database db = generate_database({.items = 50, .diversity = 2.0, .seed = 24});
  Allocation alloc(db, 4);
  CandidateIndex index(alloc);
  const std::size_t evals_at_build = index.moves_evaluated();
  EXPECT_GT(evals_at_build, 0u) << "construction materializes candidate gains";
  EXPECT_EQ(index.repairs(), 0u) << "nothing to repair before the first move";
  const CdsMove move = index.best_move();
  ASSERT_GT(move.gain, 0.0);
  index.apply(move);
  index.best_move();  // folds the pending move
  EXPECT_GT(index.repairs(), 0u) << "a move must disturb at least its own pair";
  EXPECT_GT(index.moves_evaluated(), evals_at_build);
}

TEST(CandidateIndex, FoldsAllocateNothing) {
  // 500 folds at K = 64 rebuild the hull and collect disturbed items in
  // scratch sized at construction.
  const Database db = generate_database({.items = 2000, .diversity = 2.0, .seed = 27});
  Allocation alloc(db, 64);
  CandidateIndex index(alloc);
  const std::size_t before = g_heap_allocations.load();
  for (int fold = 0; fold < 500; ++fold) index.apply(index.best_move());
  index.best_move();
  EXPECT_EQ(g_heap_allocations.load() - before, 0u);
  EXPECT_GT(index.repairs(), 500u) << "the folds must have done real repairs";
}

TEST(CandidateIndex, RequiresTwoChannels) {
  const Database db = generate_database({.items = 10, .seed = 25});
  Allocation alloc(db, 1);
  EXPECT_THROW(CandidateIndex index(alloc), ContractViolation);
}

TEST(CandidateIndex, RejectsBackToBackApplies) {
  const Database db = generate_database({.items = 20, .seed = 26});
  Allocation alloc(db, 3);
  CandidateIndex index(alloc);
  const CdsMove move = index.best_move();
  ASSERT_GT(move.gain, 0.0);
  index.apply(move);
  // The fold in best_move() must run before the next apply.
  EXPECT_THROW(index.apply(move), ContractViolation);
}

}  // namespace
}  // namespace dbs
