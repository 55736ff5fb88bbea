#include "core/candidate_index.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "core/cds.h"
#include "core/drp.h"
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

// The index's one correctness obligation: at every step its best_move() must
// equal the exhaustive best_move(alloc) scan — same item, same target,
// bit-identical gain (both compute Eq. 4 with the same expression).
void expect_matches_scan(Allocation& alloc, CandidateIndex& index,
                         const char* context) {
  const CdsMove scan = best_move(alloc);
  const CdsMove indexed = index.best_move();
  ASSERT_EQ(scan.item, indexed.item) << context;
  ASSERT_EQ(scan.from, indexed.from) << context;
  ASSERT_EQ(scan.to, indexed.to) << context;
  ASSERT_DOUBLE_EQ(scan.gain, indexed.gain) << context;
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
  // apply() accepts any legal move, not just the one best_move() returned.
  // A random walk exercises the fold/repair machinery under dynamics a
  // greedy descent never produces (cost-increasing moves, revisits). The
  // second shape walks away from a CDS local optimum, whose channel points
  // spread along the lower hull (about a dozen pieces at K = 64), so the
  // walk also checks folds in which the target's piece vanishes and folds in
  // which the source's piece appears between two others.
  struct Shape {
    std::size_t items;
    ChannelId channels;
    std::uint64_t seed;
    bool from_local_optimum;  // else from a random assignment
  };
  for (const Shape shape : {Shape{60, 5, 22, false}, Shape{400, 64, 28, true}}) {
    const Database db = generate_database({.items = shape.items, .diversity = 3.0,
                                           .seed = shape.seed});
    const ChannelId k = shape.channels;
    Allocation alloc = [&] {
      if (shape.from_local_optimum) {
        Allocation optimum = run_drp(db, k).allocation;
        run_cds(optimum);
        return optimum;
      }
      Rng rng(7);
      std::vector<ChannelId> start(db.size());
      for (auto& c : start) c = static_cast<ChannelId>(rng.below(k));
      return Allocation(db, k, start);
    }();
    CandidateIndex index(alloc);
    Rng rng(99);
    for (int step = 0; step < 200; ++step) {
      expect_matches_scan(alloc, index, "random walk");
      const ItemId item = static_cast<ItemId>(rng.below(db.size()));
      ChannelId to = static_cast<ChannelId>(rng.below(k));
      if (to == alloc.assignment()[item]) to = static_cast<ChannelId>((to + 1) % k);
      index.apply(CdsMove{item, alloc.assignment()[item], to, 0.0});
    }
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

TEST(CandidateIndex, AgedIndexAgreesWithFreshlyBuiltIndex) {
  // After many incremental folds, the cached columns must equal what a
  // from-scratch construction computes — the repair path may not drift.
  const Database db = generate_database({.items = 70, .diversity = 2.0, .seed = 23});
  Allocation alloc(db, 6);
  CandidateIndex aged(alloc);
  for (int step = 0; step < 50; ++step) {
    const CdsMove move = aged.best_move();
    if (move.gain <= 1e-12) break;
    aged.apply(move);
  }
  const CdsMove from_aged = aged.best_move();
  CandidateIndex fresh(alloc);
  const CdsMove from_fresh = fresh.best_move();
  EXPECT_EQ(from_aged.item, from_fresh.item);
  EXPECT_EQ(from_aged.to, from_fresh.to);
  EXPECT_DOUBLE_EQ(from_aged.gain, from_fresh.gain);
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
