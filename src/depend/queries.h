// Dependent-data broadcasting: clients issue *queries* that need several
// items, not single items (the environment of the paper's references [9] and
// [10], Huang & Chen). The program generator still allocates items, but the
// latency that matters is per-query: the time until the client holds every
// item it asked for.
//
// Two retrieval models are evaluated:
//  * parallel  — the device can listen to all channels at once; the query
//    completes when the slowest item arrives (max of delivery times);
//  * sequential — a single tuner: the client repeatedly picks, among the
//    missing items, the one whose next transmission completes earliest,
//    downloads it, and continues from that instant (greedy plan).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "model/database.h"
#include "sim/program.h"

namespace dbs {

/// One query pattern: an item set with an occurrence probability.
struct Query {
  std::vector<ItemId> items;  ///< distinct, non-empty
  double freq = 0.0;          ///< normalized across the workload
};

/// A query workload over a database.
struct QueryWorkload {
  std::vector<Query> queries;

  /// Per-item access frequency induced by the queries:
  /// f_item ∝ Σ_{queries q ∋ item} freq(q). This is what a single-item
  /// scheduler (e.g. DRP-CDS) would be fed.
  std::vector<double> induced_item_frequencies(std::size_t items) const;
};

/// Generator parameters for synthetic query workloads.
struct QueryWorkloadConfig {
  std::size_t queries = 60;       ///< number of distinct query patterns
  std::size_t max_items = 4;      ///< items per query drawn from [1, max]
  double skewness = 0.8;          ///< Zipf over query rank
  std::uint64_t seed = 1;
};

/// Draws a synthetic query workload over `db`. Query popularity is Zipf over
/// query rank; member items are drawn (without replacement within a query)
/// from a Zipf(0.8) over item ids.
QueryWorkload generate_query_workload(const Database& db,
                                      const QueryWorkloadConfig& config);

/// Latency of one query instance starting at time t under the parallel
/// (all-channels) retrieval model.
double query_latency_parallel(const BroadcastProgram& program, const Query& query,
                              double t);

/// Latency under the sequential single-tuner greedy retrieval model.
double query_latency_sequential(const BroadcastProgram& program, const Query& query,
                                double t);

/// Expected query latency of the workload: freq-weighted mean over queries of
/// the mean latency over 64 uniformly-spread start times per query.
struct QueryLatencyReport {
  double parallel = 0.0;
  double sequential = 0.0;
};
QueryLatencyReport evaluate_query_workload(const BroadcastProgram& program,
                                           const QueryWorkload& workload);

}  // namespace dbs
