#include "depend/queries.h"

#include <gtest/gtest.h>

#include <set>

#include "baselines/flat.h"
#include "common/check.h"
#include "core/drp_cds.h"
#include "workload/generator.h"

namespace dbs {
namespace {

TEST(QueryWorkload, GeneratorProducesValidQueries) {
  const Database db = generate_database({.items = 40, .seed = 1});
  const QueryWorkload workload =
      generate_query_workload(db, {.queries = 50, .max_items = 4, .seed = 2});
  ASSERT_EQ(workload.queries.size(), 50u);
  double freq = 0.0;
  for (const Query& q : workload.queries) {
    EXPECT_GE(q.items.size(), 1u);
    EXPECT_LE(q.items.size(), 4u);
    std::set<ItemId> unique(q.items.begin(), q.items.end());
    EXPECT_EQ(unique.size(), q.items.size()) << "duplicate item in query";
    for (ItemId id : q.items) EXPECT_LT(id, db.size());
    freq += q.freq;
  }
  EXPECT_NEAR(freq, 1.0, 1e-9);
}

TEST(QueryWorkload, DeterministicForFixedSeed) {
  const Database db = generate_database({.items = 30, .seed = 3});
  const QueryWorkloadConfig cfg{.queries = 20, .max_items = 3, .seed = 9};
  const QueryWorkload a = generate_query_workload(db, cfg);
  const QueryWorkload b = generate_query_workload(db, cfg);
  for (std::size_t i = 0; i < a.queries.size(); ++i) {
    EXPECT_EQ(a.queries[i].items, b.queries[i].items);
  }
}

TEST(QueryWorkload, InducedFrequenciesCoverQueriedItems) {
  const Database db = generate_database({.items = 25, .seed = 4});
  const QueryWorkload workload =
      generate_query_workload(db, {.queries = 30, .max_items = 3, .seed = 5});
  const auto freq = workload.induced_item_frequencies(db.size());
  double sum = 0.0;
  for (double f : freq) sum += f;
  EXPECT_GT(sum, 0.99);  // ≥ total query mass; > 1 when queries overlap
  for (const Query& q : workload.queries) {
    for (ItemId id : q.items) EXPECT_GT(freq[id], 0.0);
  }
}

TEST(QueryLatency, SingleItemQueryMatchesProgramWait) {
  const Database db = generate_database({.items = 20, .seed = 6});
  const Allocation alloc = run_drp_cds(db, 3).allocation;
  const BroadcastProgram program(alloc, 10.0);
  const Query q{{5}, 1.0};
  for (double t : {0.0, 1.3, 7.9}) {
    EXPECT_NEAR(query_latency_parallel(program, q, t), program.waiting_time(5, t),
                1e-12);
    EXPECT_NEAR(query_latency_sequential(program, q, t), program.waiting_time(5, t),
                1e-12);
  }
}

TEST(QueryLatency, ParallelNeverSlowerThanSequential) {
  const Database db = generate_database({.items = 50, .diversity = 1.5, .seed = 7});
  const Allocation alloc = run_drp_cds(db, 5).allocation;
  const BroadcastProgram program(alloc, 10.0);
  const QueryWorkload workload =
      generate_query_workload(db, {.queries = 40, .max_items = 4, .seed = 8});
  for (const Query& q : workload.queries) {
    for (double t : {0.0, 3.7, 11.2}) {
      EXPECT_LE(query_latency_parallel(program, q, t),
                query_latency_sequential(program, q, t) + 1e-9);
    }
  }
}

TEST(QueryLatency, ParallelIsMaxOfItemWaits) {
  const Database db({10.0, 20.0, 30.0}, {0.4, 0.3, 0.3});
  std::vector<ChannelId> assignment = {0, 1, 1};
  const Allocation alloc(db, 2, std::move(assignment));
  const BroadcastProgram program(alloc, 10.0);
  const Query q{{0, 2}, 1.0};
  const double t = 0.3;
  const double expected = std::max(program.delivery_time(0, t),
                                   program.delivery_time(2, t)) - t;
  EXPECT_NEAR(query_latency_parallel(program, q, t), expected, 1e-12);
}

TEST(QueryLatency, SequentialGreedyHandComputed) {
  // Channel 0: item0 [0,1) cycle 1. Channel 1: item1 [0,2), item2 [2,5),
  // cycle 5 (b=10, sizes 10/20/30).
  const Database db({10.0, 20.0, 30.0}, {0.4, 0.3, 0.3});
  const Allocation alloc(db, 2, {0, 1, 1});
  const BroadcastProgram program(alloc, 10.0);
  const Query q{{0, 1, 2}, 1.0};
  // t=0: deliveries — item0 at 1, item1 at 2, item2 at 5. Greedy takes item0
  // (done 1), then item1: next start ≥1 is 5 -> done 7? No: item1 starts at
  // 0+5k; ≥1 -> 5, done 7. item2: starts 2+5k ≥1 -> 2, done 5. Greedy picks
  // item2 (5 < 7), then item1: starts ≥5 -> 5, done 7. Total 7.
  EXPECT_NEAR(query_latency_sequential(program, q, 0.0), 7.0, 1e-9);
  // Parallel: max(1, 2, 5) = 5.
  EXPECT_NEAR(query_latency_parallel(program, q, 0.0), 5.0, 1e-9);
}

TEST(QueryLatency, EvaluateAggregatesConsistently) {
  const Database db = generate_database({.items = 40, .diversity = 1.5, .seed = 9});
  const Allocation alloc = run_drp_cds(db, 4).allocation;
  const BroadcastProgram program(alloc, 10.0);
  const QueryWorkload workload =
      generate_query_workload(db, {.queries = 25, .max_items = 3, .seed = 10});
  const QueryLatencyReport report = evaluate_query_workload(program, workload);
  EXPECT_GT(report.parallel, 0.0);
  EXPECT_GE(report.sequential, report.parallel - 1e-9);
}

TEST(QueryLatency, ScheduledProgramBeatsFlatForQueriesToo) {
  // Scheduling on induced item frequencies helps query latency as well.
  const Database db = generate_database({.items = 60, .skewness = 1.0,
                                         .diversity = 2.0, .seed = 11});
  const QueryWorkload workload =
      generate_query_workload(db, {.queries = 50, .max_items = 3, .seed = 12});
  // Re-weight the database by induced frequencies, then schedule.
  std::vector<double> sizes;
  for (const Item& it : db.items()) sizes.push_back(it.size);
  const Database weighted(sizes, workload.induced_item_frequencies(db.size()));
  const Allocation tuned = run_drp_cds(weighted, 5).allocation;
  const Allocation flat = flat_round_robin(weighted, 5);
  const BroadcastProgram tuned_prog(tuned, 10.0);
  const BroadcastProgram flat_prog(flat, 10.0);
  const QueryLatencyReport a = evaluate_query_workload(tuned_prog, workload);
  const QueryLatencyReport b = evaluate_query_workload(flat_prog, workload);
  EXPECT_LT(a.sequential, b.sequential);
}

TEST(QueryWorkload, RejectsBadConfig) {
  const Database db = generate_database({.items = 5, .seed = 13});
  EXPECT_THROW(generate_query_workload(db, {.queries = 0}), ContractViolation);
  EXPECT_THROW(generate_query_workload(db, {.queries = 3, .max_items = 9}),
               ContractViolation);
}

}  // namespace
}  // namespace dbs
