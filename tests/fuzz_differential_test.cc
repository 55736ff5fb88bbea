// Randomized differential tests: independent implementations of the same
// quantity must agree on randomly generated instances. These are the tests
// that catch bookkeeping drift that hand-picked cases miss.
#include <gtest/gtest.h>

#include <algorithm>

#include "baselines/brute_force.h"
#include "baselines/ordered_dp.h"
#include "brute_cds.h"
#include "core/cds.h"
#include "core/drp.h"
#include "core/partition.h"
#include "model/cost.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"
#include "workload/generator.h"

namespace dbs {
namespace {

Database random_db(Rng& rng, std::size_t max_items = 24) {
  const std::size_t n = 2 + static_cast<std::size_t>(rng.below(max_items - 1));
  std::vector<double> sizes(n);
  std::vector<double> freqs(n);
  for (std::size_t i = 0; i < n; ++i) {
    sizes[i] = rng.uniform(0.1, 50.0);
    freqs[i] = rng.uniform(0.0, 1.0);
  }
  freqs[static_cast<std::size_t>(rng.below(n))] += 0.1;  // ensure positive mass
  return Database(sizes, freqs);
}

TEST(FuzzDifferential, IncrementalCostEqualsRecomputedAfterRandomOps) {
  Rng rng(101);
  for (int instance = 0; instance < 30; ++instance) {
    const Database db = random_db(rng);
    const ChannelId k = 1 + static_cast<ChannelId>(rng.below(5));
    Allocation alloc(db, k);
    for (int op = 0; op < 200; ++op) {
      const ItemId id = static_cast<ItemId>(rng.below(db.size()));
      const ChannelId to = static_cast<ChannelId>(rng.below(k));
      const double predicted = alloc.move_gain(id, to);
      const double before = alloc.cost();
      alloc.move(id, to);
      EXPECT_NEAR(before - alloc.cost(), predicted, 1e-9);
      EXPECT_NEAR(alloc.cost(), alloc.cost_recomputed(), 1e-9);
    }
    std::string error;
    EXPECT_TRUE(alloc.validate(&error)) << error;
  }
}

TEST(FuzzDifferential, BestSplitAgreesWithQuadraticReference) {
  Rng rng(102);
  for (int instance = 0; instance < 40; ++instance) {
    const Database db = random_db(rng);
    const auto& order = db.benefit_order();
    const PrefixSums sums(db, order);
    const std::size_t n = order.size();
    const SplitResult fast = best_split(sums, 0, n);
    double reference = 1e300;
    std::size_t ref_split = 0;
    for (std::size_t p = 1; p < n; ++p) {
      double fl = 0.0, zl = 0.0;
      for (std::size_t i = 0; i < p; ++i) {
        fl += db.item(order[i]).freq;
        zl += db.item(order[i]).size;
      }
      double fr = 0.0, zr = 0.0;
      for (std::size_t i = p; i < n; ++i) {
        fr += db.item(order[i]).freq;
        zr += db.item(order[i]).size;
      }
      const double total = fl * zl + fr * zr;
      if (total < reference - 1e-15) {
        reference = total;
        ref_split = p;
      }
    }
    EXPECT_NEAR(fast.total(), reference, 1e-9);
    EXPECT_EQ(fast.split, ref_split);
  }
}

TEST(FuzzDifferential, OrderedDpNeverBeatsBruteForceAndNeverLosesToDrp) {
  Rng rng(103);
  for (int instance = 0; instance < 15; ++instance) {
    const Database db = random_db(rng, 14);
    const ChannelId k =
        1 + static_cast<ChannelId>(rng.below(std::min<std::size_t>(4, db.size())));
    const auto exact = brute_force_optimal(db, k);
    ASSERT_TRUE(exact.has_value());
    const double dp = ordered_dp_optimal(db, k).cost();
    const double drp = run_drp(db, k).allocation.cost();
    EXPECT_GE(dp, exact->cost - 1e-9);
    EXPECT_LE(dp, drp + 1e-9);
  }
}

TEST(FuzzDifferential, CdsMatchesBruteForceOnRandomInstances) {
  Rng rng(104);
  for (int instance = 0; instance < 20; ++instance) {
    const Database db = random_db(rng, 40);
    const ChannelId k =
        1 + static_cast<ChannelId>(rng.below(std::min<std::size_t>(6, db.size())));
    std::vector<ChannelId> start(db.size());
    for (auto& c : start) c = static_cast<ChannelId>(rng.below(k));
    Allocation brute(db, k, start);
    Allocation indexed = brute;
    const std::size_t brute_moves = brute_force_cds(brute);
    EXPECT_EQ(run_cds(indexed).iterations, brute_moves) << "instance " << instance;
    EXPECT_EQ(brute.assignment(), indexed.assignment()) << "instance " << instance;
  }
}

TEST(FuzzDifferential, SimulatorEnginesAgreeOnRandomPrograms) {
  Rng rng(105);
  for (int instance = 0; instance < 10; ++instance) {
    const Database db = random_db(rng, 20);
    const ChannelId k =
        1 + static_cast<ChannelId>(rng.below(std::min<std::size_t>(4, db.size())));
    std::vector<ChannelId> assignment(db.size());
    for (auto& c : assignment) c = static_cast<ChannelId>(rng.below(k));
    const Allocation alloc(db, k, assignment);
    const BroadcastProgram program(alloc, rng.uniform(1.0, 20.0));
    const auto trace =
        generate_trace(db, {.requests = 400, .arrival_rate = 5.0, .seed = rng()});
    const SimReport des = simulate(program, trace);
    const SimReport replay = replay_analytic(program, trace);
    ASSERT_EQ(des.requests_served, replay.requests_served);
    EXPECT_NEAR(des.mean_wait(), replay.mean_wait(), 1e-9) << "instance " << instance;
  }
}

TEST(FuzzDifferential, EventQueueMatchesSortedReference) {
  Rng rng(107);
  for (int instance = 0; instance < 20; ++instance) {
    EventQueue queue;
    std::vector<std::pair<double, int>> expected;
    std::vector<std::pair<double, int>> fired;
    const int events = 100;
    for (int i = 0; i < events; ++i) {
      const double when = rng.uniform(0.0, 10.0);
      expected.emplace_back(when, i);
      queue.schedule(when, [&fired, when, i] { fired.emplace_back(when, i); });
    }
    queue.run_all();
    // Stable sort by time = FIFO among ties, exactly the queue's contract.
    std::stable_sort(expected.begin(), expected.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
    EXPECT_EQ(fired, expected) << "instance " << instance;
  }
}

}  // namespace
}  // namespace dbs
